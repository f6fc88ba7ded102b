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
paper's optimal adversary (weak duality).  The bowl is separable, so m
tables of n + 1 entries give each point's bowl in m lookups; the seeds
are the grid point nearest SOC's reply to x and its one-unit moves.

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

Grid points are unranked from their lexicographic positions, as in the
combinatorial number system, in chunks of GRID_CHUNK_ROWS points, or
fewer on many links so that a chunk holds at most GRID_CHUNK_CELLS
points times links (the last one may be shorter): Python steps once per
chunk and part, never per point, and a chunk's memory is bounded at any
link count.  A chunk of 8,192 points holds the 5,151 of resolution 100
on 3 links, so a pass over that grid makes one set of numpy calls, not
three.  Each chunk is evaluated in numpy at once, less the points the
bowl, the planes or a pinned face drop: the adversary's closed form
directly, SOC's water-fills through the batched kernel `waterfill_rows`,
which is bit-identical to the scalar one row by row.  The seeds, a
handful of rows that do not come from the grid, are scored in Python
floats with the same operations in the same order, SOC's replies by the
scalar kernel `waterfill`, which costs a few microseconds a row where a
batched call costs tens.  So each point's value, and each bound, is the
float that a loop over single points would compute, however the grid is
chunked.

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
GRID_CHUNK_CELLS cells, in read-only chunks of its parts and of them
divided by its resolution, keyed by its size and chunk layout.  So
`minimax_gap` enumerates its grid once, a later call at the same size
enumerates nothing, and a larger grid is streamed by each bound and
never kept.  A kept chunk holds the numbers that enumerating again would
give, so the bounds stay pure functions of their arguments.

numpy is imported by the functions that use it, not by this module, so
`import malice` and every CLI subcommand but `verify` run without it.
"""

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from operator import add

from .errors import GridTooLarge, InvalidRange
from .flows import waterfill, waterfill_rows
from .model import MASS_TOL, SHOWN_COUNT, Instance, check_alpha, check_integer, check_sum, shown

DEFAULT_POINT_CAP = 2_000_000
DEFAULT_CELL_CAP = 16_000_000  # points times links: bounds a many-link grid's memory and time
GRID_CHUNK_ROWS = 8_192  # points per chunk: resolution 100 on 3 links, 5,151 points, is one chunk
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
    """Yield (parts, unit) per chunk of _grid_chunks(n, m): its parts and
    the parts divided by n, float64, both link-major and read-only, from
    the kept grid if it has this size and chunk layout.

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
        parts.flags.writeable = unit.flags.writeable = False
        if chunks is not None:
            chunks.append((parts, unit))
        yield parts, unit
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


def _kept(chunks, dropped, seeds):
    """Yield, link-major, the rows of each chunk (parts, unit) that the
    mask dropped(parts, unit) does not mark, or the chunk itself if it
    marks none; a chunk whose kept rows are all seeds, lists of parts
    whose values are already in the bound, yields nothing."""
    import numpy as np

    seeds = {tuple(parts) for parts in seeds}
    for parts, unit in chunks:
        mask = dropped(parts, unit)
        count = len(unit) - np.count_nonzero(mask)
        if count == len(unit):
            yield unit
        elif count:
            # grid points are distinct, so only as many rows as seeds can all be seeds
            index = (~mask).nonzero()[0]
            if count > len(seeds) or not seeds.issuperset(map(tuple, parts[index].tolist())):
                yield np.asfortranarray(unit[index])


def _attacks(a, b, alpha, unit):
    """The costs of the SOC strategies (1 - alpha) * unit, one per row,
    under MAL's best response, as mal_best_response plays it: all of
    alpha on the first link t maximizing a_k y_k, added only where
    y_t != 0, as cost adds nothing for an empty link.

    The upper bound's evaluation path for the rows it reads from the
    grid; _seed_attacks runs the same operations on the seeds.
    """
    import numpy as np

    y = (1.0 - alpha) * unit
    at_t = _first_max(y * a) * len(y) + np.arange(len(y))  # (row, t), link-major
    load = y.copy(order="F")
    yt = y.ravel(order="F")[at_t]
    load.ravel(order="F")[at_t] = yt + alpha * (yt != 0.0)
    return _link_sum(y * (a * load + b))


def _seed_attacks(inst: Instance, alpha: float, seeds, n: int):
    """_attacks' costs of the seeds, rows of parts of n, in Python floats:
    the same operations in the same order, so the same floats, with t the
    first link of the largest a_k y_k, as _first_max picks it, and each
    cost summed from link 0's term in index order, as _link_sum adds."""
    a, b = inst.slopes, inst.intercepts
    beta = 1.0 - alpha
    values = []
    for parts in seeds:
        y = [beta * (p / n) for p in parts]
        damage = [yk * ak for yk, ak in zip(y, a)]
        t = damage.index(max(damage))
        terms = [yk * (ak * yk + bk) for yk, ak, bk in zip(y, a, b)]
        yt = y[t]
        terms[t] = yt * (a[t] * (yt + alpha * (yt != 0.0)) + b[t])
        values.append(reduce(add, terms))
    return values


def _seeded(m: int, n: int) -> bool:
    """Whether a grid point and its one-unit moves, 1 + 2m rows or
    m(m - 1) + 1 on fewer than three links, can seed a bound on the grid
    of resolution n on m links: they must number fewer than its points,
    and seeds times links must stay within 1,024.

    So testing a point against the lower bound's planes takes at most
    1,024 multiply-adds.  That admits up to 22 links, 45 seeds, where the
    test still costs less than water-filling the point; and the planes of
    a chunk, its rows times the seeds, at most 45 times GRID_CHUNK_ROWS,
    368,640 floats, stay within GRID_CHUNK_CELLS.
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


def _bowl(inst: Instance, alpha: float, n: int):
    """(seeds, best, tables, limit) of the upper bound's pruning (see
    soc_mal_value), or None where there are no seeds.

    x is MAL's selfish flow of mass alpha from the scalar kernel, t its sum
    in index order and s_k = a_k x_k + b_k its shifted intercepts.  The
    seeds are the grid point nearest SOC's reply to x, the scalar kernel's
    water-fill of mass 1 - alpha on the doubled slopes and shifted
    intercepts, and its one-unit moves (see _rounded), as lists of parts
    of n; best is the smallest of their values.  tables[k, j] is T_k at
    the grid's float v_j, NaN where it overflowed, and limit is best + M.
    There are no seeds where _seeded admits none, where t is not finite,
    which an overflowed flow leaves, or where the reply has no usable sum:
    at alpha = 1, where it is empty, or where it overflows.  Nor are there
    any where the tables, m (n + 1) entries, would hold more cells than a
    chunk may, GRID_CHUNK_CELLS: that is only two links past resolution
    2**20 - 1, a line of over a million points, where two links' closed
    form costs about what dropping its points would.
    """
    import numpy as np

    m = inst.m
    if m * (n + 1) > GRID_CHUNK_CELLS or not _seeded(m, n):
        return None
    a, b = inst.slopes, inst.intercepts
    x = _selfish(inst, alpha)
    total = reduce(add, x)
    if not total < math.inf:
        return None
    shifted = [a[k] * x[k] + b[k] for k in range(m)]
    beta = 1.0 - alpha
    _, reply = waterfill(inst.doubled_slopes, shifted, beta)
    seeds = _rounded([reply.get(k, 0.0) for k in range(m)], n)
    if seeds is None:
        return None
    best = min(_seed_attacks(inst, alpha, seeds, n))
    rho = 4 * (m + 8) * sys.float_info.epsilon
    limit = best + (rho * (best + sys.float_info.min) + 2.0 * (abs(total - alpha) + rho * total) * beta * max(a))
    v = np.arange(n + 1) / n
    v *= beta
    tables = np.multiply.outer(a, v)
    tables += np.array(shifted)[:, None]
    tables *= v
    tables[np.isinf(tables)] = np.nan  # an entry that overflowed bounds nothing
    return seeds, best, tables, limit


def _above(tables, parts, limit):
    """Whether each row's bowl, its parts' table entries summed in index
    order, is above limit: a NaN bowl is not, so it keeps its point."""
    bowl = tables[0][parts[:, 0]]
    for k in range(1, len(tables)):
        bowl += tables[k][parts[:, k]]
    return bowl > limit


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
    v_j = (1 - alpha)(j / n), the grid's own floats, so the bowl is m
    tables T_k[j], and a point's bowl is their entries at its parts,
    summed in index order.  The seeds (see _bowl) are the grid point
    nearest SOC's reply to x and its one-unit moves; best is the smallest
    of their values.  A grid point whose bowl exceeds best + M is
    dropped; the other points, less the seeds, are evaluated chunk by
    chunk, and the bound is the smallest value of all evaluated.  With
    beta = 1 - alpha, A = max_k a_k, t the sum of x in index order,
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
    point gives, and a seed changes only the speed, never the value.  A
    table entry whose s_k or a_k v_j + s_k overflowed bounds nothing and
    is made NaN; a NaN bowl, like an inf best, drops nothing.  Where there
    are no seeds every point is evaluated.
    """
    import numpy as np

    alpha, a, b = check_alpha(alpha), np.array(inst.slopes), np.array(inst.intercepts)
    n = _resolution(grid)
    chunks = _unit_chunks(n, inst.m)
    units = (unit for _, unit in chunks)
    best = math.inf
    with np.errstate(all="ignore"):  # IEEE results, as a loop over floats gives
        bowl = _bowl(inst, alpha, n)
        if bowl is not None:
            seeds, best, tables, limit = bowl
            units = _kept(chunks, lambda parts, unit: _above(tables, parts, limit), seeds)
        for unit in units:
            best = min(best, float(_attacks(a, b, alpha, unit).min()))
    return best


def _replies(a, b, doubled, alpha, beta, unit, floor):
    """(values, y): SOC's exact replies y to the adversarial strategies
    alpha * unit, one per row, and their costs.

    The lower bound's evaluation path for the rows it reads from the grid;
    _seed_replies runs the same operations on the seeds.  A reply whose
    loads miss SOC's mass beta = 1 - alpha raises InvalidMass, as a Flow of
    those loads would, rather than enter the bound.

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


def _seed_replies(inst: Instance, alpha: float, beta: float, seeds, n: int):
    """(values, planes) of SOC's replies to the seeds, rows of parts of n:
    each reply's cost and its plane row alpha a_k y_k + c (see
    mal_soc_value), water-filled one row at a time by the scalar kernel.

    Each row runs _replies' operations in the same order, so each value
    is the same float, and a mass miss raises the same InvalidMass, on
    the total that _replies would report (see _worst): the kernel's own
    (intercept, index) sort is waterfill_rows' stable argsort, and every
    link it does not write carries 0.0.
    """
    a, b = inst.slopes, inst.intercepts
    links = range(inst.m)
    values, totals, planes = [], [], []
    for parts in seeds:
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
    t_k == c and near-ties within delta are not pinned.
    """
    positive, flat = inst.order
    a = inst.slopes
    if not flat or not all(2.0**-500 <= a[k] <= 2.0**500 for k in positive):
        return None
    c = inst.intercepts[flat[0]]
    return max(c * (1.0 + 4 * (inst.m + 2) * sys.float_info.epsilon), math.nextafter(2.0**-500, 0.0))


def _plateau(inst: Instance) -> bool:
    """Whether every grid point is pinned (see _pin_floor), so that every
    point has the same reply: a_k x_k + b_k >= b_k, as rounding is
    monotone, so it is where every positive-slope b_k exceeds the floor,
    and where every link has a zero slope."""
    floor = _pin_floor(inst)
    return floor is not None and all(inst.intercepts[k] > floor for k in inst.order[0])


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
    speed, never the value.  On a pinned face (see _pin_floor), where the
    planes are flat, the first pinned point of each chunk evaluated stands
    for the chunk's others (see _replies).  On a whole-grid plateau (see
    _plateau) one point, the grid's first, stands for all, and no seeds or
    planes are built; so it does at alpha = 0, where every point is the
    same input, x = 0.0 * unit, and at alpha = 1, where every reply is
    empty and every value +0.0.

    Costs overflow as IEEE arithmetic does, without a numpy warning.  A
    link that a reply leaves empty adds nothing, by model.cost's rule;
    and a NaN value never enters the maximum, as in a point-by-point
    loop's `if value > best`.
    """
    import numpy as np

    alpha, a, b = check_alpha(alpha), np.array(inst.slopes), np.array(inst.intercepts)
    n, m = _resolution(grid), inst.m
    beta = 1.0 - alpha
    pin = _pin_floor(inst)
    chunks = _unit_chunks(n, m)
    units = (unit for _, unit in chunks)
    best = -math.inf
    with np.errstate(all="ignore"):  # IEEE results, as a loop over floats gives
        doubled = 2.0 * a
        # at alpha = 0 every point is x = 0.0 * unit, the same input, and at
        # alpha = 1 every reply is empty and every value +0.0
        plateau = not 0.0 < alpha < 1.0 or _plateau(inst)
        seeds = None if plateau else _seeds(inst, alpha, n)
        if plateau:
            # one point, from the grid so that its caps hold, stands for them all
            units = (next(units)[:1],)
        elif seeds is not None:
            # a point's units sum to 1, so c_j + x @ w_j is unit @ (alpha w_j + c_j)
            values, planes = _seed_replies(inst, alpha, beta, seeds, n)
            for value in values:
                if value > best:  # a NaN value never enters
                    best = value
            planes = np.array(planes)
            eps = MASS_TOL * max(1.0, beta)
            scale = alpha + 2.0 * (beta + eps)
            marginal = max([ak * scale + bk for ak, bk in inst.links])  # L
            rho = 4 * (m + 8) * sys.float_info.epsilon
            floor = best - (rho * (abs(best) + beta * marginal) + 4.0 * eps * marginal)
            # a NaN plane keeps its point: only one provably below the floor drops it
            units = _kept(chunks, lambda parts, unit: (planes @ unit.T).min(axis=0) < floor, seeds)
        for unit in units:
            values, _ = _replies(a, b, doubled, alpha, beta, unit, pin)
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
