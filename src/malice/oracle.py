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

The upper bound evaluates every grid point.  The lower bound evaluates
only the points that can still raise it: SOC's best-reply cost is
concave in the adversary's strategy, so the cost of SOC's reply to each
of a few seeds, the grid point nearest MAL's selfish flow and its
one-unit moves, is a plane above it over the whole grid (Kelley's
cutting planes).  A point whose lowest plane lies below the seeds' best
value by more than a margin M, which covers rounding and the mass
tolerance (see mal_soc_value), cannot exceed that value and is dropped:
its reply is neither computed nor mass-checked, as it cannot enter the
bound.  So the bound is the float that evaluating every point gives, and
the seeds, which come from the solver's kernel, change only its speed.
The planes cannot prune a whole-grid plateau, where a zero-slope link
below every positive-slope intercept, by a margin that covers the
kernel's rounding, pins SOC's level at every point (see _plateau).
There every point has the same reply, value and mass sum, bit for bit,
so the bound evaluates one point, the grid's first: it is the float
that every point gives, and its mass check raises the InvalidMass, with
the message, that the first point evaluated would.  So it does at
alpha = 0, where every point is the same input, and at alpha = 1, where
every reply is empty and every value +0.0.  Both bounds score a point
by model.cost's rule, with nothing for a link that SOC's flow leaves
empty; and the lower bound skips a NaN value, as a loop over points
does.

Grid points are unranked from their lexicographic positions, as in the
combinatorial number system, in chunks of GRID_CHUNK_ROWS points, or
fewer on many links so that a chunk holds at most GRID_CHUNK_CELLS
points times links (the last one may be shorter): Python steps once per
chunk and part, never per point, and a chunk's memory is bounded at any
link count.  Each chunk
is evaluated in numpy at once: the adversary's closed form directly,
SOC's water-fills, of the points the planes keep, through the batched
kernel `waterfill_rows`, which is bit-identical to the scalar one row by
row.  So each point's value, and each bound, is the float that a loop
over single points would compute, however the grid is chunked.

Chunks are link-major (Fortran order), one contiguous column per link:
an elementwise operation with a per-link vector then runs numpy's inner
loop over the chunk's points and not over the few links of each point,
so its per-call cost is spread over thousands of entries, not three.  The
sums over links add the columns one after another in index order, as a
loop over a single point does; numpy's own sum along a contiguous row
adds eight or more links pairwise, which changes the last bit.

Both caps are checked where the grid is built, so `simplex_grid` and
both bounds share them: DEFAULT_POINT_CAP on the points and the
resolution, and DEFAULT_CELL_CAP on points times links, with which a
many-link grid's memory and time grow.

A process keeps one grid for both bounds: the last one of at most
GRID_CHUNK_CELLS cells, divided by its resolution, in read-only chunks,
keyed by its size and chunk layout.  So `minimax_gap` enumerates its
grid once, a later call at the same size enumerates nothing, and a
larger grid is streamed by each bound and never kept.  A kept chunk
holds the floats that enumerating again would give, so the bounds stay
pure functions of their arguments.

numpy is imported by the functions that use it, not by this module, so
`import malice` and every CLI subcommand but `verify` run without it.
"""

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass

from .errors import GridTooLarge, InvalidRange
from .flows import waterfill_rows
from .model import MASS_TOL, SHOWN_COUNT, Instance, check_alpha, check_integer, check_sum, shown

DEFAULT_POINT_CAP = 2_000_000
DEFAULT_CELL_CAP = 16_000_000  # points times links: bounds a many-link grid's memory and time
GRID_CHUNK_ROWS = 2_048  # points per chunk: keeps a chunk of few links in cache
GRID_CHUNK_CELLS = 2**21  # points times links per chunk: bounds a chunk's memory on many links

_kept_grid = None  # ((n, m, GRID_CHUNK_ROWS, GRID_CHUNK_CELLS), chunks) of _unit_chunks


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


def _grid_chunks(n: int, m: int):
    """Yield the compositions of n into m nonnegative parts, lexicographically,
    as int64 arrays of min(GRID_CHUNK_ROWS, GRID_CHUNK_CELLS // m) rows (at
    least one), the last one of at most as many.

    Each row is unranked from u, the number of points after it.  Counted
    from the end, the points whose first part leaves s for the k - 1 parts
    after it come in blocks of s = 0, 1, ..., and the block of s has as many
    points as s has compositions into k - 1 parts.  For each part j, with
    k = m - j parts left, counts[j] holds 0 and then those block sizes summed
    over 0..s, so one searchsorted finds a row's s, and subtracting the
    blocks before s leaves u within its block.  Two parts with u left and
    s to share are s - u and u.  A chunk's u are consecutive, so the first
    part's s only steps down through it: two bisects find its first and
    last s, and each s is repeated over its block's rows, not searched.

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
    blocks = counts[0].tolist() if m > 2 else None  # the first part's table, for bisect
    rows = max(1, min(GRID_CHUNK_ROWS, GRID_CHUNK_CELLS // m))
    for start in range(total - 1, -1, -rows):
        end = max(start - rows, -1) + 1  # the chunk's u run from start down to end
        u = np.arange(start, end - 1, -1)
        parts = np.empty((len(u), m), dtype=np.int64, order="F")
        rest = n
        if blocks is not None:
            # the first part: the rows of s from high down to low are the u
            # between block starts, table[s] <= u < table[s + 1]
            high = bisect_right(blocks, start) - 1
            low = bisect_right(blocks, end) - 1
            table = counts[0]
            cuts = np.concatenate(((start + 1,), table[low + 1:high + 1][::-1], (end,)))
            rest = np.repeat(np.arange(high, low - 1, -1), cuts[:-1] - cuts[1:])
            np.subtract(n, rest, out=parts[:, 0])
            np.subtract(u, table.take(rest), out=u)
        for j in range(1, m - 2):
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
    """Yield _grid_chunks(n, m) divided by n, float64, link-major and
    read-only, from the kept grid if it has this size and chunk layout.

    A grid of at most GRID_CHUNK_CELLS cells replaces the kept one once it
    has been yielded in full; a larger one, or one whose caller stopped or
    raised, leaves it as it was.  The memo is read once, so a concurrent
    call that replaces it changes nothing this one yields.
    """
    global _kept_grid
    key = (n, m, GRID_CHUNK_ROWS, GRID_CHUNK_CELLS)
    kept = _kept_grid
    if kept is not None and kept[0] == key:
        yield from kept[1]
        return
    chunks = [] if _grid_points(n, m) * m <= GRID_CHUNK_CELLS else None
    for parts in _grid_chunks(n, m):
        unit = parts / n
        unit.flags.writeable = False
        if chunks is not None:
            chunks.append(unit)
        yield unit
    if chunks is not None:
        _kept_grid = (key, tuple(chunks))


def _first_max(values):
    """Each row's index of its largest entry, the first one on ties, as
    argmax gives it, from one pass over the contiguous link columns."""
    import numpy as np

    best = values[:, 0].copy()
    index = np.zeros(len(values), dtype=np.intp)
    for k in range(1, values.shape[1]):
        column = values[:, k]
        higher = column > best
        np.copyto(best, column, where=higher)
        np.copyto(index, k, where=higher)
    return index


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


def soc_mal_value(inst: Instance, alpha: float, grid: GridSpec) -> float:
    """min over gridded SOC strategies of the exact adversarial best response.

    An upper bound on the game value, tight to O(1/resolution).  Each
    point's value is mal_best_response(inst, y, alpha).value bit for bit:
    the same terms, summed link by link in index order.  Costs near the
    end of the float range overflow as IEEE arithmetic does, without a
    numpy warning; no value is NaN, as no empty link is charged.
    """
    import numpy as np

    alpha, a, b = check_alpha(alpha), np.array(inst.slopes), np.array(inst.intercepts)
    best = math.inf
    with np.errstate(over="ignore", invalid="ignore"):  # IEEE results, as a loop over floats gives
        for unit in _unit_chunks(_resolution(grid), inst.m):
            y = (1.0 - alpha) * unit
            # x + y for MAL's best response x, as mal_best_response plays
            # it: all of alpha on the first link t maximizing a_k y_k, added
            # only where y_t != 0, as cost adds nothing for an empty link
            at_t = _first_max(y * a) * len(y) + np.arange(len(y))  # (row, t), link-major
            load = y.copy(order="F")
            yt = y.ravel(order="F")[at_t]
            load.ravel(order="F")[at_t] = yt + alpha * (yt != 0.0)
            best = min(best, float(_link_sum(y * (a * load + b)).min()))
    return best


def _replies(a, b, doubled, alpha, beta, unit):
    """(values, y): SOC's exact replies y to the adversarial strategies
    alpha * unit, one per row, and their costs.

    The one evaluation path of the lower bound.  A reply whose loads miss
    SOC's mass beta = 1 - alpha raises InvalidMass, as a Flow of those loads
    would, rather than enter the bound.
    """
    import numpy as np

    x = alpha * unit
    _, y = waterfill_rows(doubled, a * x + b, beta)
    # summed link by link in index order, as a point-by-point loop and Flow
    # would; a link SOC leaves empty adds +0.0, by model.cost's rule
    values = _link_sum(np.where(y != 0.0, y * (a * (x + y) + b), 0.0))
    totals = _link_sum(y)
    check_sum(float(totals[np.argmax(np.abs(totals - beta))]), beta)
    return values, y


def _seeds(a, b, alpha, n: int, m: int):
    """The grid point nearest MAL's selfish flow of mass alpha, then its
    one-unit moves to the cyclically next and previous link, as int64 rows
    of parts of n; None where their planes cannot prune.

    The nearest point takes floor(n x_k / sum(x)) units on each link k and
    one more on the links of the largest remainders, the first on ties,
    with sum(x) added in index order: as n m is far below
    1 / epsilon, those floors sum to at most n and more than n - m - 1,
    so it is a grid point.

    There are no seeds at alpha = 0, where every plane is flat; when they
    would number at least the grid's points; or when seeds times links
    exceed GRID_CHUNK_CELLS // GRID_CHUNK_ROWS, one point's share of a
    chunk.  So the planes of a chunk, its rows times the seeds, stay within
    GRID_CHUNK_CELLS, and testing a point against them takes at most 1,024
    multiply-adds.  That admits up to 22 links, where the test still costs
    less than water-filling the point.  Nor are there any when MAL's loads
    have no positive finite sum, which a stranded mass can leave.
    """
    import numpy as np

    count = 1 + (2 * m if m > 2 else m * (m - 1))
    budget = GRID_CHUNK_CELLS // GRID_CHUNK_ROWS
    if not alpha > 0.0 or count * m > budget or count >= _capped_points(n, m):
        return None
    _, x = waterfill_rows(a, b[None, :], alpha)
    loads = x[0].tolist()  # m Python floats: cheaper to round than m-entry arrays
    total = 0.0
    for load in loads:
        total += load
    if not 0.0 < total < math.inf:
        return None
    scale = n / total
    target = [load * scale for load in loads]
    parts = [math.floor(share) for share in target]
    # one more unit on the links of the largest remainders, the first on ties
    for k in sorted(range(m), key=lambda k: parts[k] - target[k])[:n - sum(parts)]:
        parts[k] += 1
    moves = [(i, j) for i in range(m) if parts[i] for j in sorted({(i + 1) % m, (i - 1) % m})]
    return np.array([parts, *([p - (k == i) + (k == j) for k, p in enumerate(parts)] for i, j in moves)],
                    dtype=np.int64)


def _plateau(inst: Instance) -> bool:
    """Whether SOC's level is pinned at one zero-slope intercept c at
    every grid point, so that every point has the same reply.

    The test: the instance has a zero-slope link, c is the smallest
    zero-slope intercept, and every positive-slope link (a_k, b_k) has
    b_k > c (1 + delta), delta = 4 (m + 2) epsilons, with a_k and b_k in
    [2**-500, 2**500].  At each point x, waterfill_rows caps the level at
    c and fills the shifted intercepts t_k = a_k x_k + b_k >= b_k
    (rounding is monotone).  Its level, (beta + sum t_k / s_k) / sum 1 / s_k
    with s_k = 2 a_k over the nonempty set of links it fills, is at least
    their smallest t_k.  In the window every 1 / s_k and t_k / s_k and
    every partial sum is a normal float, but a sum of t_k / s_k may
    overflow to inf, which makes the level inf.  So the computed level is
    at least that smallest t_k times (1 - u)**(m + 2) / (1 + u)**m
    >= 1 - (m + 2) epsilons, with u = epsilon / 2, and the rounded
    threshold is at least c (1 + delta)(1 - epsilon): the level exceeds c
    (a zero or subnormal c lies below any level of at least 2**-501).
    So every point is pinned at c: its positive-slope links load nothing,
    the zero-slope links tied at c split beta = 1 - alpha equally, and as
    every cost term is finite, the reply, its value and its mass sum are
    the same floats at every point (at beta = 0, which loads nothing, too).
    b_k == c and near-ties within delta fail the test.
    """
    sloped, flat = inst.order
    if not flat:
        return False
    links = [inst.links[i] for i in sloped]  # in increasing intercept order
    c = inst.intercepts[flat[0]]
    delta = 4 * (inst.m + 2) * sys.float_info.epsilon
    return not links or (links[0][1] > c * (1.0 + delta)
                         and all(2.0**-500 <= min(link) and max(link) <= 2.0**500 for link in links))


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
    summation (BLAS included) each is within r = (m + 8) epsilons of its
    size; c_j rides in the matmul as a point's units, which sum to 1
    within that.  A seed's reply passed the mass check, so it lacks at
    most eps + r beta of beta, and filling that onto a link raises its
    cost by at most that times L.  A point's computed reply, optimal for
    its own mass up to rounding, may carry eps more than beta, which
    raises its cost by at most eps times its level, below L.  So a dropped
    point's value is at most its plane plus
    3 r best + (1 + r)(2 eps + r beta) L, which M covers with room for the
    rounding of L: no dropped point could raise best, the bound is the
    float that evaluating every point gives, and a seed changes only the
    speed, never the value.  On a whole-grid plateau (see _plateau),
    where the planes are flat, one point, the grid's first, stands for
    all, and no seeds or planes are built; so it does at alpha = 0, where
    every point is the same input, x = 0.0 * unit, and at alpha = 1, where
    every reply is empty and every value +0.0.

    Costs overflow as IEEE arithmetic does, without a numpy warning.  A
    link that a reply leaves empty adds nothing, by model.cost's rule;
    and a NaN value never enters the maximum, as in a point-by-point
    loop's `if value > best`.
    """
    import numpy as np

    alpha, a, b = check_alpha(alpha), np.array(inst.slopes), np.array(inst.intercepts)
    n, m = _resolution(grid), inst.m
    beta = 1.0 - alpha
    chunks = _unit_chunks(n, m)
    best = -math.inf
    with np.errstate(over="ignore", invalid="ignore"):  # IEEE results, as a loop over floats gives
        doubled = 2.0 * a
        # at alpha = 0 every point is x = 0.0 * unit, the same input, and at
        # alpha = 1 every reply is empty and every value +0.0
        plateau = not 0.0 < alpha < 1.0 or _plateau(inst)
        seeds = None if plateau else _seeds(a, b, alpha, n, m)
        if plateau:
            # one point, from the grid so that its caps hold, stands for them all
            chunks = (next(chunks)[:1],)
        elif seeds is not None:
            seeds = seeds / n  # the floats of their grid points
            values, y = _replies(a, b, doubled, alpha, beta, seeds)
            # a NaN value never enters: fmax skips it, and max keeps best
            best = max(best, float(np.fmax.reduce(values)))
            # a point's units sum to 1, so c_j + x @ w_j is unit @ (alpha w_j + c_j)
            planes = alpha * (a * y) + _link_sum(y * (a * y + b))[:, None]
            eps = MASS_TOL * max(1.0, beta)
            scale = alpha + 2.0 * (beta + eps)
            marginal = max([ak * scale + bk for ak, bk in inst.links])  # L
            rho = 4 * (m + 8) * sys.float_info.epsilon
            floor = best - (rho * (abs(best) + beta * marginal) + 4.0 * eps * marginal)

            def kept(unit):
                """The rows of unit that no plane drops, link-major; none if
                they are all seeds, whose values are in best."""
                # a NaN plane keeps its point: only one provably below the floor drops it
                index = (~((planes @ unit.T).min(axis=0) < floor)).nonzero()[0]
                if len(index) == len(unit):
                    return unit
                unit = np.asfortranarray(unit[index])
                # grid points are distinct, so only as many rows as seeds can all be seeds
                if len(unit) <= len(seeds) and (unit[:, None, :] == seeds).all(axis=2).any(axis=1).all():
                    return unit[:0]
                return unit

            chunks = map(kept, chunks)
        for unit in chunks:
            if len(unit):
                values, _ = _replies(a, b, doubled, alpha, beta, unit)
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
