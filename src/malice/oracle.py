"""Brute-force verification of the minimax value on discretized simplices.

Only the outer player is gridded.  The inner optimization is exact in
both directions (the adversary's best response has a closed form, SOC's
is a water-fill), so each direction gives a one-sided bound on the game
value with O(1/n) error:

    soc_mal_value  =  min over gridded y of the exact inner max   >= value
    mal_soc_value  =  max over gridded x of the exact inner min   <= value

Their difference brackets the equilibrium value and shrinks as the
resolution grows; doubling the resolution refines the grid in place, so
the gap never widens.

Each bound evaluates only the grid points that can still move it.  A
few seeds are scored first, and a point whose estimate (below) lies past
their best value by more than a margin M, which covers rounding (see
each bound), cannot move the bound and is dropped.  So each bound is the
float that evaluating every point gives, and the seeds, which come from
the solver's kernel, change only its speed.

The upper bound's value at y, MAL's best-response cost f(y), lies on or
above the bowl C(x, y), SOC's cost under MAL's selfish flow x, the
paper's optimal adversary (weak duality).  The bowl is separable, a sum
of one convex term per link; the seeds are the grid point nearest SOC's
reply to x and its one-unit moves.

The lower bound's value at x, SOC's best-reply cost h(x), is concave in
the adversary's strategy, so the cost of SOC's reply to each seed, the
grid point nearest MAL's selfish flow and its one-unit moves, is a plane
above h over the whole grid (Kelley's cutting planes); a dropped point's
reply is neither computed nor mass-checked, as it cannot enter the
bound.  The planes cannot prune a pinned face, where MAL's load lifts
every positive-slope intercept above a zero-slope link's, by a margin
that covers the kernel's rounding, so that this link pins SOC's level
and h is flat (see _pin_floor).  Every pinned point has the same reply,
value and mass sum, bit for bit, so of each chunk's pinned points only
the first is water-filled: the bound is the float that every point
gives, and the mass check raises the InvalidMass, with the message, that
evaluating every point would.  Where every point is pinned, a
whole-grid plateau (see _plateau), the bound evaluates one point, the
grid's first, and builds no seeds or planes.  So it does at alpha = 0,
where every point is the same input, and at alpha = 1, where every
reply is empty and every value +0.0.  Both bounds score a point
by model.cost's rule, with nothing for a link that SOC's flow leaves
empty; and the lower bound skips a NaN value, as a loop over points
does.

Neither bound passes over the grid where it has seeds.  Each walks the
grid depth first, one link per level and the parts in lexicographic
order (Land and Doig's branch and bound), and enters a prefix only if
its best completion can still be kept: the bowl's prefix plus a lower
bound on the rest (Lagrangian, as in marginal allocation for separable
convex costs; Ibaraki and Katoh, Resource Allocation Problems, 1988), or
each plane's prefix plus the rest times its largest remaining
coefficient.  On each level the parts that pass form one run, found by
bisection, as both tests are convex in the part; a leaf is kept by the
bound's own test.  The kept points, usually a handful, are scored in
Python floats by the seeds' scorers, SOC's replies by the scalar kernel
`waterfill`, and the lower bound checks their masses per chunk of
GRID_CHUNK_ROWS ranks, as a pass over the grid's chunks would.  So a
seeded bound imports no numpy, and its time follows the points kept,
not the points of the grid.

A grid without seeds (see _seeded, _bowl and _seeds) is evaluated in
full.  Its points are unranked from their lexicographic positions, as
in the combinatorial number system, in chunks of GRID_CHUNK_ROWS points,
or fewer on many links so that a chunk holds at most GRID_CHUNK_CELLS
points times links (the last one may be shorter): Python steps once per
chunk and part, never per point, and a chunk's memory is bounded at any
link count.  Each chunk is evaluated in numpy at once, less the pinned
points past each chunk's first: the adversary's closed form directly,
SOC's water-fills through the batched kernel `waterfill_rows`, whose
loads are the scalar kernel's bit for bit, row by row.  The Python
scorers run the same operations in the same order.  So each point's
value, and each bound, is the float that a loop over single points
would compute, however the grid is walked or chunked.

Chunks are link-major (Fortran order), one contiguous column per link:
an elementwise operation with a per-link vector then runs numpy's inner
loop over the chunk's points and not over the few links of each point,
so its per-call cost is spread over thousands of entries, not three.  The
sums over links add the columns one after another in index order, as a
loop over a single point does; numpy's own sum along a contiguous row
adds eight or more links pairwise, which changes the last bit.

Both caps are checked before anything else, so `simplex_grid` and both
bounds share them: DEFAULT_POINT_CAP on the points and the resolution,
and DEFAULT_CELL_CAP on points times links, with which a many-link
grid's memory and time grow.

numpy is imported by the functions that use it, not by this module, so
`import malice`, every CLI subcommand but `verify`, and `verify` on a
grid with seeds run without it.
"""

import math
import sys
from dataclasses import dataclass
from functools import reduce
from itertools import groupby
from operator import add

from .errors import GridTooLarge, InvalidRange
from .flows import waterfill, waterfill_rows
from .model import MASS_TOL, SHOWN_COUNT, Instance, check_alpha, check_integer, check_sum, shown

DEFAULT_POINT_CAP = 2_000_000
DEFAULT_CELL_CAP = 16_000_000  # points times links: bounds a many-link grid's memory and time
GRID_CHUNK_ROWS = 8_192  # points per chunk: resolution 100 on 3 links, 5,151 points, is one chunk
GRID_CHUNK_CELLS = 2**21  # points times links per chunk: bounds a chunk's memory on many links


@dataclass(frozen=True)
class GridSpec:
    """Each player's simplex discretized into multiples of mass/resolution."""

    resolution: int

    def __post_init__(self):
        check_integer(self.resolution, InvalidRange, "grid resolution must be a positive integer", 1)

    def __repr__(self):
        # the dataclass repr, but a resolution too long to print is shown by its bound
        return f"GridSpec(resolution={shown(self.resolution)})"

    def points(self, m: int) -> int:
        """Number of grid points on an m-link simplex; GridTooLarge past SHOWN_COUNT."""
        count = _grid_points(self.resolution, m)
        if count > SHOWN_COUNT:
            raise GridTooLarge(f"{shown(count)} grid points on {shown(m)} links at resolution "
                               f"{shown(self.resolution)} are too many to count")
        return count


def _grid_points(n: int, m: int) -> int:
    """comb(n + m - 1, m - 1), the points of the grid, if at most SHOWN_COUNT,
    else some number above SHOWN_COUNT; InvalidRange unless n is an int
    >= 0 and m an int >= 1, bools excluded.

    It is the running product C(k + j, j) for j = 1, 2, ... up to the
    smaller of n and m - 1, with k the larger; each step at least doubles
    it, so it passes SHOWN_COUNT within about 60 steps however large n or
    m is, and stops there.
    """
    check_integer(n, InvalidRange, "grid resolution must be a nonnegative integer", 0)
    check_integer(m, InvalidRange, "link count must be a positive integer", 1)
    small, k = sorted((n, m - 1))
    count = 1
    for j in range(1, small + 1):
        count = count * (k + j) // j
        if count > SHOWN_COUNT:
            break
    return count


def _capped_points(n: int, m: int) -> int:
    """_grid_points(n, m), GridTooLarge past DEFAULT_POINT_CAP points or
    resolution or DEFAULT_CELL_CAP cells."""
    total = _grid_points(n, m)
    # one link has a single grid point at any resolution, so cap the resolution too
    if max(total, n) > DEFAULT_POINT_CAP:
        raise GridTooLarge(
            f"{shown(total)} grid points on {shown(m)} links at resolution {shown(n)} "
            f"exceed the cap {DEFAULT_POINT_CAP}"
        )
    if total * m > DEFAULT_CELL_CAP:
        raise GridTooLarge(
            f"{shown(total * m)} grid cells ({total} points on {shown(m)} links at resolution {n}) "
            f"exceed the cap {DEFAULT_CELL_CAP}"
        )
    return total


def _chunk_rows(m: int) -> int:
    """The points of a chunk of the grid on m links: GRID_CHUNK_ROWS, or
    fewer, at least one, so that a chunk holds at most GRID_CHUNK_CELLS
    points times links."""
    return max(1, min(GRID_CHUNK_ROWS, GRID_CHUNK_CELLS // m))


def _grid_chunks(n: int, m: int):
    """Yield the compositions of n into m nonnegative parts, lexicographically,
    as int64 arrays of _chunk_rows(m) rows, the last one of at most as many.

    Each row is unranked from u, the number of points after it.  Counted
    from the end, the points whose first part leaves s for the k - 1 parts
    after it come in blocks of s = 0, 1, ..., and the block of s has as many
    points as s has compositions into k - 1 parts.  For each part j, with
    k = m - j parts left, counts[j] holds 0 and then those block sizes summed
    over 0..s, so one searchsorted finds a row's s, and subtracting the
    blocks before s leaves u within its block.  Two parts with u left and
    s to share are s - u and u.

    More than DEFAULT_POINT_CAP points or resolution, or more than
    DEFAULT_CELL_CAP cells (points times links), is GridTooLarge before
    anything is allocated; so every count, at most the points, fits in int64.
    The points are counted only as far as _grid_points goes, so the check
    takes microseconds at any resolution and link count.
    """
    import numpy as np

    total = _capped_points(n, m)
    if m == 1:
        yield np.full((1, 1), n, dtype=np.int64)
        return
    counts = np.zeros((m - 2, n + 2), dtype=np.int64)
    sizes = np.arange(1, n + 2)  # s + 1: the compositions of s into two parts
    for table in counts[::-1]:
        sizes = np.cumsum(sizes, out=table[1:])
    rows = _chunk_rows(m)
    for start in range(total - 1, -1, -rows):
        u = np.arange(start, max(start - rows, -1), -1)  # the chunk's u, from start down
        parts = np.empty((len(u), m), dtype=np.int64, order="F")
        rest = n
        for j in range(m - 2):
            table = counts[j]
            s = np.searchsorted(table[1:], u, side="right")
            np.subtract(rest, s, out=parts[:, j])
            np.subtract(u, table.take(s), out=u)
            rest = s
        np.subtract(rest, u, out=parts[:, m - 2])
        parts[:, m - 1] = u
        yield parts


def simplex_grid(n: int, m: int):
    """Yield the compositions of n into m nonnegative parts, lexicographically."""
    for chunk in _grid_chunks(n, m):
        yield from map(tuple, chunk.tolist())


def _unit_chunks(n: int, m: int):
    """Yield (parts, unit) per chunk of _grid_chunks(n, m): its parts and
    the parts divided by n, float64 and link-major."""
    for parts in _grid_chunks(n, m):
        yield parts, parts / n


def _link_sum(values):
    """Each row's entries summed in index order, as a loop over one point
    adds them: numpy's own sum adds pairwise along a contiguous row."""
    total = values[:, 0].copy()
    for k in range(1, values.shape[1]):
        total += values[:, k]
    return total


def _resolution(grid) -> int:
    """grid's resolution, checked by GridSpec's rule; InvalidRange naming
    grid if it has none."""
    try:
        resolution = grid.resolution
    except AttributeError:
        raise InvalidRange(f"grid must be a GridSpec, got {shown(grid)}") from None
    return check_integer(resolution, InvalidRange, "grid resolution must be a positive integer", 1)


def _attacks(a, b, alpha, unit):
    """The costs of the SOC strategies (1 - alpha) * unit, one per row,
    under MAL's best response, as mal_best_response plays it: all of
    alpha on the first link t maximizing a_k y_k, added only where
    y_t != 0, as cost adds nothing for an empty link.  y * a is finite,
    as y <= 1, so argmax picks that first link.

    The upper bound's evaluation path on a grid without seeds;
    _seed_attacks runs the same operations on the rows of a seeded one.
    """
    import numpy as np

    y = (1.0 - alpha) * unit
    row, t = np.arange(len(y)), np.argmax(y * a, axis=1)
    load = y.copy(order="F")
    yt = y[row, t]
    load[row, t] = yt + alpha * (yt != 0.0)
    return _link_sum(y * (a * load + b))


def _attack_entries(inst: Instance, alpha: float, n: int):
    """A function of (k, p): link k's damage y a_k, term y (a_k y + b_k)
    and attacked term at the share y = (1 - alpha)(p / n), as _attacks
    computes them, each kept once computed."""
    a, b = inst.slopes, inst.intercepts
    beta = 1.0 - alpha
    tables = [{} for _ in range(inst.m)]

    def entry(k, p):
        found = tables[k].get(p)
        if found is None:
            y = beta * (p / n)
            ak, bk = a[k], b[k]
            found = tables[k][p] = (y * ak, y * (ak * y + bk), y * (ak * (y + alpha * (y != 0.0)) + bk))
        return found

    return entry


def _seed_attacks(inst: Instance, alpha: float, rows, n: int):
    """_attacks' costs of rows of parts of n, on two links or more, in
    Python floats, each row a slice of one point (see _slice_attacks)."""
    entry = _attack_entries(inst, alpha, n)
    return [_slice_attacks(entry, parts[:-2], parts[-2] + parts[-1], parts[-2], parts[-2]) for parts in rows]


def _slice_attacks(entry, prefix, r: int, low: int, high: int) -> float:
    """The smallest of _attacks' costs of the points prefix + [j, r - j] for
    j in [low, high], inf if none, entry being _attack_entries'.

    Each cost runs _attacks' operations in the same order, so it is the
    same float: the attacked link t is the first of the largest damage, as
    argmax picks it, and the terms, t's attacked, are summed from link 0's
    in index order, as _link_sum adds them.  The prefix's largest damage,
    its plain sum and its sum with t attacked are taken once, and each
    point adds its last two links' terms to the one that t picks."""
    d = len(prefix)
    top, plain, attacked = -math.inf, 0.0, 0.0
    entries = [entry(k, p) for k, p in enumerate(prefix)]
    if entries:
        damage = [e[0] for e in entries]
        t = damage.index(max(damage))
        top = damage[t]
        terms = [e[1] for e in entries]
        plain = reduce(add, terms)
        terms[t] = entries[t][2]
        attacked = reduce(add, terms)
    best = math.inf
    for j in range(low, high + 1):
        d1, plain1, attacked1 = entry(d, j)
        d2, plain2, attacked2 = entry(d + 1, r - j)
        if top >= d1 and top >= d2:  # the first largest damage, as argmax picks it
            value = attacked + plain1 + plain2
        elif d1 >= d2:
            value = plain + attacked1 + plain2
        else:
            value = plain + plain1 + attacked2
        if value < best:
            best = value
    return best


def _seeded(m: int, n: int) -> bool:
    """Whether a grid point and its one-unit moves, 1 + 2m rows or
    m(m - 1) + 1 on fewer than three links, can seed a bound on the grid
    of resolution n on m links: they must number fewer than its points,
    and seeds times links must stay within 1,024.

    So testing a point against the lower bound's planes, which the walk
    does at every part it bisects, takes at most 1,024 multiply-adds.
    That admits up to 22 links, 45 seeds, where the test still costs less
    than water-filling the point; on more links the grid is evaluated in
    full, by numpy.
    """
    count = 1 + (2 * m if m > 2 else m * (m - 1))
    return count * m <= 1_024 and count < _capped_points(n, m)


def _rounded(loads, n: int):
    """The grid point nearest a flow's loads, then its one-unit moves to
    the cyclically next and previous link, as lists of parts of n; None
    unless the loads' sum, added in index order, is positive and finite,
    and n over it finite too.

    The nearest point takes floor(n l_k / sum(l)) units on each link k and
    one more on the links of the largest remainders, the first on ties:
    as n m is far below 1 / epsilon, those floors sum to at most n and
    more than n - m - 1, so it is a grid point.
    """
    m = len(loads)
    total = reduce(add, loads)
    scale = n / total if 0.0 < total < math.inf else math.inf
    if scale == math.inf:  # no sum, or one so small that n / sum overflows
        return None
    target = [load * scale for load in loads]
    parts = [math.floor(share) for share in target]
    # one more unit on the links of the largest remainders, the first on ties
    for k in sorted(range(m), key=lambda k: parts[k] - target[k])[:n - sum(parts)]:
        parts[k] += 1
    seeds = [parts]
    for i in range(m):
        if parts[i]:
            for j in sorted({(i + 1) % m, (i - 1) % m}):
                move = parts.copy()
                move[i] -= 1
                move[j] += 1
                seeds.append(move)
    return seeds


def _selfish(inst: Instance, alpha: float):
    """MAL's selfish flow of mass alpha from the scalar kernel, a load per
    link, 0.0 on each link it leaves empty: where both bounds' seeds
    start."""
    _, written = waterfill(inst.slopes, inst.intercepts, alpha, inst.order)
    return [written.get(k, 0.0) for k in range(inst.m)]


def _reach(keep, most: int) -> int:
    """The largest i in [0, most] for which keep(i) holds, keep(0) being
    true and keep false from some i on: galloping from 0, then bisecting."""
    good, bad = 0, most + 1
    step = 1
    while step < bad and keep(step):
        good, step = step, 2 * step
    bad = min(bad, step)
    while bad - good > 1:
        mid = (good + bad) // 2
        if keep(mid):
            good = mid
        else:
            bad = mid
    return good


def _bowl(inst: Instance, alpha: float, n: int):
    """(seeds, best, slices) of the upper bound (see soc_mal_value), or
    None where there are no seeds.

    x is MAL's selfish flow of mass alpha from the scalar kernel, t its sum
    in index order and s_k = a_k x_k + b_k its shifted intercepts.  The
    seeds are the grid point nearest SOC's reply to x, the scalar kernel's
    water-fill of mass 1 - alpha on the doubled slopes and shifted
    intercepts, and its one-unit moves (see _rounded), as lists of parts
    of n; best is the smallest of their values, and slices is
    _bowl_slices' walk over the points whose bowl is at most best + M.
    There are no seeds where _seeded admits none, where t is not finite, which an overflowed flow
    leaves, or where the reply has no usable sum: at alpha = 1, where it
    is empty, or where it overflows.  Nor are there any where a bowl term,
    an s_k, the reply's level or best + M is not finite: there the bowl
    bounds nothing, and every point is evaluated.
    """
    m = inst.m
    if not _seeded(m, n):
        return None
    a, b = inst.slopes, inst.intercepts
    x = _selfish(inst, alpha)
    total = reduce(add, x)
    if not total < math.inf:
        return None
    shifted = [a[k] * x[k] + b[k] for k in range(m)]
    beta = 1.0 - alpha
    level, reply = waterfill(inst.doubled_slopes, shifted, beta)
    seeds = _rounded([reply.get(k, 0.0) for k in range(m)], n)
    if seeds is None:
        return None
    best = min(_seed_attacks(inst, alpha, seeds, n))
    rho = 4 * (m + 8) * sys.float_info.epsilon
    limit = best + (rho * (best + sys.float_info.min) + 2.0 * (abs(total - alpha) + rho * total) * beta * max(a))
    # each link's largest term, at v = beta, bounds its others
    largest = [(a[k] * beta + shifted[k]) * beta for k in range(m)]
    if not all(math.isfinite(v) for v in (*largest, level, limit)):
        return None
    return seeds, best, _bowl_slices(a, shifted, beta, n, level, best, limit)


def _bowl_slices(a, s, beta: float, n: int, level: float, best: float, limit: float):
    """Yield (prefix, r, low, high) for each slice of the walk over links
    (see soc_mal_value) that it reaches, lexicographically: the points
    prefix + [j, r - j] whose bowl, T_k at their parts summed in index
    order, is at most limit have their j in [low, high], an empty run
    where low > high.  prefix is a list that the walk goes on to change."""
    m = len(a)

    def term(k, j):
        v = beta * (j / n)
        return (a[k] * v + s[k]) * v

    # T_k(v) >= level v + low_k for v >= 0; tails[d] sums low_k over k >= d
    tails = [0.0] * (m + 1)
    for k in range(m - 1, -1, -1):
        gap = level - s[k]
        tails[k] = tails[k + 1] + (-(gap * gap) / (4.0 * a[k]) if a[k] > 0.0 and gap > 0.0 else 0.0)
    kappa = level * beta / n
    if not level * beta - tails[0] <= 3.0 * best:  # a reply far from its mass: no tail bound
        kappa, tails = 0.0, [0.0] * (m + 1)
    parts = [0] * (m - 2)

    def share(v):
        """The share of v that the last two links' terms, as functions of a
        real share, put on link m - 2 at their least sum: where their
        marginal costs meet, halved so that nothing overflows."""
        slopes = a[m - 2] / 2.0 + a[m - 1] / 2.0
        if not slopes > 0.0:
            return 0.0 if s[m - 2] >= s[m - 1] else v
        return min(max((a[m - 1] / 2.0 * v + (s[m - 1] - s[m - 2]) / 4.0) / slopes, 0.0), v)

    def visit(d, total, r):
        if d == m - 2:
            ad, sd, ae, se = a[d], s[d], a[d + 1], s[d + 1]

            def key(j):  # the leaf's bowl: term(d, j) + term(d + 1, r - j)
                v, w = beta * (j / n), beta * ((r - j) / n)
                return total + (ad * v + sd) * v + (ae * w + se) * w

            center = share(beta * (r / n))
        elif d == m - 3:
            def key(j):  # the last two links at their least sum, as real shares
                v = beta * ((r - j) / n)
                w = share(v)
                return total + term(d, j) + ((a[d + 1] * w + s[d + 1]) * w + (a[d + 2] * (v - w) + s[d + 2]) * (v - w))

            # the three links' least sum, a water-fill of their halved terms
            _, loads = waterfill(a[d:], [sk / 2.0 for sk in s[d:]], beta * (r / n))
            center = loads.get(0, 0.0)
        else:
            tail = tails[d + 1]

            def key(j):
                return total + term(d, j) + (kappa * (r - j) + tail)

            gap = level - s[d]
            center = gap / a[d] / 2.0 if a[d] > 0.0 and gap > 0.0 else 0.0
        # the key is convex in the part, least at the floor or the ceiling of
        # center's, which may be infinite
        center /= beta / n
        center = 0 if not center > 0.0 else r if center >= r else int(center)
        if center < r and key(center + 1) < key(center):
            center += 1
        if key(center) > limit:
            low, high = center, center - 1
        else:
            low = center - _reach(lambda i: key(center - i) <= limit, center)
            high = center + _reach(lambda i: key(center + i) <= limit, r - center)
        if d == m - 2:
            yield parts, r, low, high
            return
        for j in range(low, high + 1):
            parts[d] = j
            yield from visit(d + 1, total + term(d, j), r - j)

    yield from visit(0, 0.0, n)


def soc_mal_value(inst: Instance, alpha: float, grid: GridSpec) -> float:
    """min over gridded SOC strategies of the exact adversarial best response.

    An upper bound on the game value, tight to O(1/resolution).  Each
    point's value is mal_best_response(inst, y, alpha).value bit for bit:
    the same terms, summed link by link in index order.  Costs near the
    end of the float range overflow as IEEE arithmetic does, without a
    numpy warning; no value is NaN, as no empty link is charged.

    It is the smallest over the grid of f(y) = max_x' C(x', y), MAL's cost
    at its best response, evaluated only where it can still be the
    smallest.  For any adversary x, f lies on or above the bowl C(x, y)
    (weak duality), which is separable in y:

        C(x, y) = sum_k T_k(y_k),   T_k(v) = v (a_k v + s_k),
        s_k = a_k x_k + b_k.

    x is MAL's selfish flow, the paper's optimal adversary, so the bowl
    touches f at the equilibrium.  Each link takes only the n + 1 values
    v_j = (1 - alpha)(j / n), the grid's own floats, and a point's bowl is
    its terms T_k at its parts, summed in index order.  The seeds (see
    _bowl) are the grid point nearest SOC's reply to x and its one-unit
    moves; best is the smallest of their values.  A grid point whose bowl
    exceeds best + M is dropped; the other points, less the seeds, are
    evaluated, and the bound is the smallest value of all evaluated.
    With beta = 1 - alpha, A = max_k a_k, t the sum of x in index order,
    rho = 4 (m + 8) machine epsilons and lambda the smallest normal float,

        M = rho (best + lambda) + 2 (|t - alpha| + rho t) beta A.

    The bowl and f are sums of products of nonnegative floats.  So with
    u half an epsilon, a computed bowl is at most (1 + u)**(m + 3) times
    its exact value, and a computed f at least (1 - u)**(m + 5) times f
    (two of its roundings pick the attacked link), each with lambda u more
    per rounding where a result is subnormal; a sum that overflows stands
    for at least the largest float.  x's exact mass is within rho t / 2
    of t, and mass beyond alpha raises the bowl above f by at most that
    mass times max_k a_k y_k <= beta A.  M covers both with room for its
    own rounding and that of best + M, so a point whose computed bowl
    exceeds best + M has a computed value of at least best: dropping it
    cannot lower the bound, which is the float that evaluating every
    point gives, and a seed changes only the speed, never the value.
    Where a term or best + M is not finite there are no seeds, and every
    point is evaluated.

    The points are found by a walk over links (see _bowl_slices), not by
    a pass over the grid.  A prefix with r units left is entered only
    where its partial bowl, summed in index order as a leaf sums it, plus
    a lower bound K(r) on the bowl of the links left, is at most best + M;
    on the last two links the test is the leaf's bowl itself.  Where two
    links are left, K is their least sum over real shares of beta r / n,
    which the shares of any completion sum to up to two roundings each.
    Where more are left, K is a Lagrangian bound (as in marginal
    allocation for separable convex costs): with mu the level of SOC's
    reply, which is at most every zero-slope s_k, T_k(v) >= mu v + low_k
    for v >= 0, low_k = -(mu - s_k)**2 / (4 a_k) where a_k > 0 and
    s_k < mu, else 0, so K(r) = kappa r plus the low_k of the links left,
    kappa = mu beta / n.  That bound touches the bowl's minimum at the
    reply, and the walk uses it only where mu beta + sum |low_k| <= 3 best,
    as it is where the reply carries its mass (mu beta is at most twice
    SOC's least cost under x, and sum |low_k| half of mu beta).

    K needs no margin of its own.  Computed, it lies within 8 u of its
    terms' sum, at most 3 best, of a lower bound on the exact bowl of
    every completion, and the prefix's test differs from its leaves' by
    fewer roundings than a leaf's test has: M's rounding term exceeds what
    a leaf's test needs, about (2 m + 8) u best, by (6 m + 56) u best, more
    than the 24 u best of K.  So a prefix that is not entered holds no
    point whose value could be below best.  Each test is convex in the
    part, up to rounding of the same order, so the parts that pass it form
    one run around its least value, where the last two links' marginal
    costs meet, where the last three's water-fill puts its share, or at
    the reply's share; the run's ends are found by galloping and bisection
    on the test itself, and every point of a run on the last two links is
    evaluated.
    """
    alpha = check_alpha(alpha)
    n, m = _resolution(grid), inst.m
    _capped_points(n, m)
    bowl = _bowl(inst, alpha, n)
    if bowl is not None:
        _, best, slices = bowl
        entry = _attack_entries(inst, alpha, n)
        for prefix, r, low, high in slices:
            best = min(best, _slice_attacks(entry, prefix, r, low, high))
        return best
    import numpy as np

    a, b = np.array(inst.slopes), np.array(inst.intercepts)
    best = math.inf
    with np.errstate(all="ignore"):  # IEEE results, as a loop over floats gives
        for _, unit in _unit_chunks(n, m):
            best = min(best, float(_attacks(a, b, alpha, unit).min()))
    return best


def _replies(a, b, doubled, alpha, beta, unit, floor):
    """(values, y): SOC's exact replies y to the adversarial strategies
    alpha * unit, one per row, and their costs.

    The lower bound's evaluation path on a grid without seeds;
    _seed_replies runs the same operations on the rows of a seeded one.
    A reply whose loads miss SOC's mass beta = 1 - alpha raises
    InvalidMass, as a Flow of those loads would, rather than enter the
    bound.

    floor is _pin_floor's, or None to water-fill every row.  A row whose
    positive-slope shifted intercepts all exceed it is pinned, and of the
    pinned rows only the first is water-filled: they all have its reply,
    value and mass sum, so the rows' largest value is the same float, and
    the first of their largest mass misses is the same total, so the mass
    check raises the same InvalidMass, with the same message.
    """
    import numpy as np

    x = alpha * unit
    if floor is not None:
        pinned = ((a * x + b)[:, doubled > 0.0] > floor).all(axis=1)
        if np.count_nonzero(pinned) > 1:
            pinned[pinned.argmax()] = False  # the first pinned row stands for the others
            x = np.asfortranarray(x[~pinned])
    # unnamed, so the shifted intercepts are freed before the costs' temporaries
    _, y = waterfill_rows(doubled, a * x + b, beta)
    # summed link by link in index order, as a point-by-point loop and Flow
    # would; a link SOC leaves empty adds +0.0, by model.cost's rule
    values = _link_sum(np.where(y != 0.0, y * (a * (x + y) + b), 0.0))
    totals = _link_sum(y)
    check_sum(float(totals[np.argmax(np.abs(totals - beta))]), beta)
    return values, y


def _seeds(inst: Instance, alpha: float, n: int):
    """The lower bound's seeds: the grid point nearest MAL's selfish flow
    of mass alpha and its one-unit moves (see _rounded), as lists of parts
    of n; None where their planes cannot prune.

    MAL's flow is the scalar kernel's, not wardrop_flow's, so a flow that
    strands or overflows its mass gives no seeds rather than an error.
    There are no seeds at alpha = 0, where every plane is flat, where
    _seeded admits none, or where MAL's loads have no usable sum, which a
    stranded mass or a subnormal alpha can leave.
    """
    if not alpha > 0.0 or not _seeded(inst.m, n):
        return None
    return _rounded(_selfish(inst, alpha), n)


def _worst(totals, beta: float) -> float:
    """The total that np.argmax(np.abs(totals - beta)) picks: the first
    whose miss is NaN, else the first of the largest misses."""
    worst, miss = totals[0], abs(totals[0] - beta)
    for total in totals[1:]:
        if miss != miss:
            break
        gap = abs(total - beta)
        if gap > miss or gap != gap:
            worst, miss = total, gap
    return worst


def _seed_replies(inst: Instance, alpha: float, beta: float, rows, n: int):
    """(values, planes) of SOC's replies to rows of parts of n: each
    reply's cost and its plane row alpha a_k y_k + c (see mal_soc_value),
    water-filled one row at a time by the scalar kernel.

    Each row runs _replies' operations in the same order, so each value
    is the same float, and a mass miss raises the same InvalidMass, on
    the total that _replies would report (see _worst): the kernel's own
    (intercept, index) sort is waterfill_rows' stable argsort, and every
    link it does not write carries 0.0.
    """
    a, b = inst.slopes, inst.intercepts
    links = range(inst.m)
    values, totals, planes = [], [], []
    for parts in rows:
        x = [alpha * (p / n) for p in parts]
        _, written = waterfill(inst.doubled_slopes, [a[k] * x[k] + b[k] for k in links], beta)
        y = [written.get(k, 0.0) for k in links]
        # each summed link by link in index order from link 0's term, as
        # _link_sum adds the columns; a link SOC leaves empty adds +0.0 to
        # the value, by model.cost's rule
        values.append(reduce(add, [y[k] * (a[k] * (x[k] + y[k]) + b[k]) if y[k] != 0.0 else 0.0 for k in links]))
        totals.append(reduce(add, y))
        c = reduce(add, [y[k] * (a[k] * y[k] + b[k]) for k in links])
        planes.append([alpha * (a[k] * y[k]) + c for k in links])
    check_sum(_worst(totals, beta), beta)
    return values, planes


def _pin_floor(inst: Instance):
    """The float above which every positive-slope link's shifted intercept
    pins SOC's level at a grid point, or None where no point can be
    pinned: without a zero-slope link, or with a positive slope outside
    [2**-500, 2**500].

    At a point x, waterfill_rows fills beta = 1 - alpha on the doubled
    slopes s_k = 2 a_k and the shifted intercepts t_k = a_k x_k + b_k, the
    floats `a * x + b` of _replies, and caps its level at c, the smallest
    zero-slope intercept.  The floor is c (1 + delta), rounded, with
    delta = 4 (m + 2) epsilons, or the float below 2**-500 if that is
    larger.  Let every positive-slope t_k exceed it, so t_k >= 2**-500.
    The kernel's level, (beta + sum t_k / s_k) / sum 1 / s_k over the
    nonempty set of links it fills, is at least their smallest t_k.  With
    the slopes in the window every 1 / s_k and every sum of them is a
    normal float, and so is every t_k / s_k and every sum of them unless
    it overflows to inf, which makes the level inf.  So the computed
    level is at least that smallest t_k times
    (1 - u)**(m + 2) / (1 + u)**m >= 1 - (m + 2) epsilons, with
    u = epsilon / 2, and the rounded floor is at least
    c (1 + delta)(1 - epsilon): the level exceeds c (a zero or subnormal c
    lies below any level of at least 2**-501).  So the point is pinned at
    c: its positive-slope links, whose t_k exceed c, load nothing, the
    zero-slope links tied at c split beta equally, and as every cost term
    is finite, the reply, its value and its mass sum are the same floats
    at every pinned point (at beta = 0, which loads nothing, too).
    t_k == c and near-ties within delta are not pinned, but for c = 0,
    where the floor is -inf: with beta >= 2**-53 and every t_k >= 0 the
    level is at least beta over m 2**499, positive, so every point is
    pinned at 0.
    """
    positive, flat = inst.order
    a = inst.slopes
    if not flat or not all(2.0**-500 <= a[k] <= 2.0**500 for k in positive):
        return None
    c = inst.intercepts[flat[0]]
    if c == 0.0:  # a free link: every level is positive, so every point is pinned
        return -math.inf
    return max(c * (1.0 + 4 * (inst.m + 2) * sys.float_info.epsilon), math.nextafter(2.0**-500, 0.0))


def _plateau(inst: Instance) -> bool:
    """Whether every grid point is pinned (see _pin_floor), so that every
    point has the same reply: a_k x_k + b_k >= b_k, as rounding is
    monotone, so it is where every positive-slope b_k exceeds the floor,
    and where every link has a zero slope."""
    floor = _pin_floor(inst)
    return floor is not None and all(inst.intercepts[k] > floor for k in inst.order[0])


def _face(inst: Instance, alpha: float, n: int, pin: float):
    """Per link, the fewest parts of n at which its shifted intercept
    a_k (alpha (p / n)) + b_k, the float _replies tests, exceeds pin, n + 1
    if none does, and 0 on a zero-slope link: a point is pinned where
    each part reaches its link's, as the intercept grows with the part."""
    a, b = inst.slopes, inst.intercepts
    least = [0] * inst.m
    for k in inst.order[0]:
        def below(j, k=k):
            return not a[k] * (alpha * (j / n)) + b[k] > pin

        least[k] = _reach(below, n) + 1 if below(0) else 0
    return least


def _plane_points(m: int, n: int, planes, floor: float, face, covered: bool, seeds):
    """The grid points that the lower bound evaluates, as (rank, parts) in
    rank order: those at which no plane lies below floor, each plane
    summed as unit @ plane in index order, less the seeds and less each
    pinned point but the first of its chunk's (see mal_soc_value).

    face is _face's list, or None where no point is pinned; where covered,
    a pinned seed stands for the face, and no pinned point is kept.
    """
    tops = [[max(row[k:]) for k in range(m)] for row in planes]  # each plane's largest coefficient from k on
    size = _chunk_rows(m)
    parts = [0] * m
    kept = []
    chunk = -1  # of the last pinned point kept

    def run(d, sums, r):
        """The parts j of link d whose bounds, each plane's largest value
        over the completions of the prefix and j, all reach the floor:
        each is linear in j, so it passes the floor on one side of a
        threshold, found in closed form with one part of room for its
        rounding."""
        low, high = 0, r
        for total, row, top in zip(sums, planes, tops):
            p, q = row[d], top[d + 1]
            base = total + q * (r / n)
            if p == q:
                if base < floor:
                    return 0, -1
            else:
                t = (floor - base) / (p - q) * n
                if p > q:
                    low = max(low, r if t > r else math.ceil(t) - 1 if t > 1.0 else 0)
                else:
                    high = min(high, -1 if t < -1.0 else r if t > r - 1 else math.floor(t) + 1)
        return low, high

    def leaves(d, sums, r, rank, js):
        for j in js:
            u, w = j / n, (r - j) / n
            if all(total + row[d] * u + row[d + 1] * w >= floor for total, row in zip(sums, planes)):
                parts[d], parts[d + 1] = j, r - j
                if tuple(parts) not in seeds:
                    kept.append((rank + j, parts.copy()))

    def visit(d, sums, r, rank):
        nonlocal chunk
        low, high = run(d, sums, r)
        if d < m - 2:
            left = m - d - 1
            whole = math.comb(r + left, left)
            for j in range(low, high + 1):
                parts[d] = j
                u = j / n
                visit(d + 1, [total + row[d] * u for total, row in zip(sums, planes)], r - j,
                      rank + whole - math.comb(r - j + left, left))
            return
        # the last two links: the point (..., j, r - j) has rank rank + j,
        # its planes are the bounds at j, and its pinned points form one run
        if face is None or not all(parts[k] >= face[k] for k in range(m - 2)):
            leaves(d, sums, r, rank, range(low, high + 1))
            return
        first, last = max(low, face[d]), min(high, r - face[d + 1])
        leaves(d, sums, r, rank, range(low, min(first, high + 1)))
        if first <= last and not covered:
            for start in range((rank + first) // size, (rank + last) // size + 1):
                if start != chunk:  # the run's first point in a chunk without a pinned point yet
                    j = max(rank + first, start * size) - rank
                    parts[d], parts[d + 1], chunk = j, r - j, start
                    kept.append((rank + j, parts.copy()))
        leaves(d, sums, r, rank, range(max(last + 1, low), high + 1))

    visit(0, [0.0] * len(planes), n, 0)
    return kept


def mal_soc_value(inst: Instance, alpha: float, grid: GridSpec) -> float:
    """max over gridded adversarial strategies of SOC's exact best reply.

    A lower bound on the game value, tight to O(1/resolution).  A reply
    whose loads miss SOC's mass 1 - alpha raises InvalidMass, as a Flow
    of those loads would, rather than enter the bound; a point that the
    planes below drop has its reply neither computed nor checked.

    It is the largest over the grid of h(x) = min_y C(x, y), SOC's cost
    at its best reply, evaluated only where it can still be the largest.
    h is a minimum of functions affine in x, so concave, and the cost of a
    reply y_j to the seed x_j is a plane above it over the whole grid:

        C(x, y_j) = c_j + x @ w_j,   w_jk = a_k y_jk,
        c_j = sum_k y_jk (a_k y_jk + b_k).

    The seeds (see _seeds) are the grid point nearest MAL's selfish flow,
    the paper's optimal adversary, and its one-unit moves; best is the
    largest of their values.  A grid point whose lowest plane lies below
    best - M is dropped; the other points, less the seeds, are evaluated
    chunk by chunk, and the bound is the largest value of all evaluated.
    With beta = 1 - alpha, eps = MASS_TOL * max(1, beta), the largest
    bound on a marginal cost L = max_k a_k (alpha + 2 (beta + eps)) + b_k,
    and rho = 4 (m + 8) machine epsilons,

        M = rho (|best| + beta L) + 4 eps L.

    A plane and a value are sums of nonnegative terms, so in any order of
    summation each is within r = (m + 8) epsilons of its size; c_j rides
    in the plane as a point's units, which sum to 1 within that.  A seed's
    reply passed the mass check, so it lacks at most eps + r beta of beta,
    and filling that onto a link raises its cost by at most that times L.
    A point's computed reply, optimal for its own mass up to rounding, may
    carry eps more than beta, which raises its cost by at most eps times
    its level, below L.  So a dropped point's value is at most its plane
    plus 3 r best + (1 + r)(2 eps + r beta) L, which M covers with room
    for the rounding of L: no dropped point could raise best, the bound is
    the float that evaluating every point gives, and a seed changes only
    the speed, never the value.  Where a plane's coefficient or best - M
    is not finite, the planes drop nothing, and every point is evaluated.

    The points are found by a walk over links (see _plane_points), not by
    a pass over the grid.  A plane's largest value over the completions
    of a prefix with r units left is its partial sum, in index order as a
    leaf sums it, plus the part j taken next times its coefficient, plus
    (r - j) / n times its largest coefficient after that.  That too is a
    sum of nonnegative terms, with fewer roundings than a plane: where it
    lies below best - M, so does each completion's plane, and the walk
    needs no margin of its own.  The bound is linear in j, so the parts
    that pass every plane form one run, whose ends are found in closed
    form with one part of room on each side: where a threshold rounds
    past a part by less than one, as 7.999999999999999 for 8, the part's
    own test decides.  A threshold further off comes from a bound nearly
    flat in j, which moves by a few u of best - M across it, and M's room
    of (m + 8) epsilons of best over what a dropped point needs covers
    that.  On the last two links the bound is the leaf's plane, and each
    point of the run off a pinned face is kept by its own test.  The kept points are
    water-filled chunk by chunk of GRID_CHUNK_ROWS ranks, and each chunk's
    masses are checked together, as _replies checks a chunk's.

    On a pinned face (see _pin_floor), where the planes are flat, the
    first pinned point of each chunk of GRID_CHUNK_ROWS ranks stands for
    the chunk's others (see _replies): the walk skips the rest of a
    slice's pinned run, and none at all where a seed is pinned, as its
    value and mass are the face's.  On a whole-grid plateau (see
    _plateau) one point, the grid's first, stands for all, and no seeds
    or planes are built; so it does at alpha = 0, where every point is
    the same input, x = 0.0 * unit, and at alpha = 1, where every reply is
    empty and every value +0.0.

    Costs overflow as IEEE arithmetic does, without a numpy warning.  A
    link that a reply leaves empty adds nothing, by model.cost's rule;
    and a NaN value never enters the maximum, as in a point-by-point
    loop's `if value > best`.
    """
    alpha = check_alpha(alpha)
    n, m = _resolution(grid), inst.m
    beta = 1.0 - alpha
    _capped_points(n, m)
    best = -math.inf

    def raised(rows):  # best and the rows' planes, after their mass check; a NaN value never enters
        values, planes = _seed_replies(inst, alpha, beta, rows, n)
        return max([best, *(value for value in values if value > best)]), planes

    # at alpha = 0 every point is x = 0.0 * unit, the same input, and at
    # alpha = 1 every reply is empty and every value +0.0
    if not 0.0 < alpha < 1.0 or _plateau(inst):
        return raised([[0] * (m - 1) + [n]])[0]  # one point, the grid's first, stands for them all
    pin = _pin_floor(inst)
    seeds = _seeds(inst, alpha, n)
    if seeds is not None:
        best, planes = raised(seeds)
        eps = MASS_TOL * max(1.0, beta)
        scale = alpha + 2.0 * (beta + eps)
        marginal = max([ak * scale + bk for ak, bk in inst.links])  # L
        rho = 4 * (m + 8) * sys.float_info.epsilon
        floor = best - (rho * (abs(best) + beta * marginal) + 4.0 * eps * marginal)
        if math.isfinite(floor) and all(math.isfinite(p) for row in planes for p in row):
            face = None if pin is None else _face(inst, alpha, n, pin)
            # a pinned seed's value and mass are the face's
            covered = face is not None and any(all(p >= q for p, q in zip(seed, face)) for seed in seeds)
            walk = _plane_points(m, n, planes, floor, face, covered, {tuple(parts) for parts in seeds})
            size = _chunk_rows(m)
            for _, rows in groupby(walk, key=lambda item: item[0] // size):
                best, _ = raised([parts for _, parts in rows])
            return best
    import numpy as np

    a, b = np.array(inst.slopes), np.array(inst.intercepts)
    with np.errstate(all="ignore"):  # IEEE results, as a loop over floats gives
        for _, unit in _unit_chunks(n, m):
            values, _ = _replies(a, b, 2.0 * a, alpha, beta, unit, pin)
            best = max(best, float(np.fmax.reduce(values)))
    return best


def minimax_gap(inst: Instance, alpha: float, grid: GridSpec) -> tuple[float, tuple[float, float]]:
    """Bracket the game value from both sides and report the gap.

    Returns (gap, (lower, upper)).  The gap is nonnegative up to float
    noise, and the equilibrium value must lie inside the bracket.
    """
    upper = soc_mal_value(inst, alpha, grid)
    lower = mal_soc_value(inst, alpha, grid)
    return upper - lower, (lower, upper)
