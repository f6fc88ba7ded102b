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

Grid points are unranked from their lexicographic positions, as in the
combinatorial number system, in chunks of GRID_CHUNK_ROWS points, or
fewer on many links so that a chunk holds at most GRID_CHUNK_CELLS
points times links (the last one may be shorter): Python steps once per
chunk and part, never per point, and a chunk's memory is bounded at any
link count.  Each chunk
is evaluated in numpy at once: the adversary's closed form directly,
SOC's water-fills through the batched kernel `waterfill_rows`, which is
bit-identical to the scalar one row by row.  So each point's value, and
each bound, is the float that a loop over single points would compute,
however the grid is chunked.

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
from bisect import bisect_right
from dataclasses import dataclass

from .errors import GridTooLarge, InvalidRange
from .flows import waterfill_rows
from .model import SHOWN_COUNT, Instance, check_alpha, check_integer, check_sum, shown

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


def soc_mal_value(inst: Instance, alpha: float, grid: GridSpec) -> float:
    """min over gridded SOC strategies of the exact adversarial best response.

    An upper bound on the game value, tight to O(1/resolution).
    """
    import numpy as np

    alpha, a, b = check_alpha(alpha), np.array(inst.slopes), np.array(inst.intercepts)
    best = math.inf
    for unit in _unit_chunks(grid.resolution, inst.m):
        y = (1.0 - alpha) * unit
        damage = y * a
        # all adversarial mass lands on the link maximizing a_k y_k (first
        # index on ties); replace that link's cost term accordingly
        t = _first_max(damage)
        per_link = y * (damage + b)
        at_t = t * len(y) + np.arange(len(y))  # (row, t) in link-major order
        yt = y.ravel(order="F").take(at_t)
        attacked = yt * (a[t] * (alpha + yt) + b[t])
        values = _link_sum(per_link) - per_link.ravel(order="F").take(at_t) + attacked
        best = min(best, float(values.min()))
    return best


def mal_soc_value(inst: Instance, alpha: float, grid: GridSpec) -> float:
    """max over gridded adversarial strategies of SOC's exact best reply.

    A lower bound on the game value, tight to O(1/resolution).  A reply
    whose loads miss SOC's mass 1 - alpha raises InvalidMass, as a Flow
    of those loads would, rather than enter the bound.
    """
    import numpy as np

    alpha, a, b = check_alpha(alpha), np.array(inst.slopes), np.array(inst.intercepts)
    doubled = 2.0 * a
    beta = 1.0 - alpha
    best = -math.inf
    for unit in _unit_chunks(grid.resolution, inst.m):
        x = alpha * unit
        _, y = waterfill_rows(doubled, a * x + b, beta)
        # summed link by link in index order, as a point-by-point loop and Flow would
        values = _link_sum(y * (a * (x + y) + b))
        totals = _link_sum(y)
        check_sum(float(totals[np.argmax(np.abs(totals - beta))]), beta)
        best = max(best, float(values.max()))
    return best


def minimax_gap(inst: Instance, alpha: float, grid: GridSpec) -> tuple[float, tuple[float, float]]:
    """Bracket the game value from both sides and report the gap.

    Returns (gap, (lower, upper)).  The gap is nonnegative up to float
    noise, and the equilibrium value must lie inside the bracket.
    """
    upper = soc_mal_value(inst, alpha, grid)
    lower = mal_soc_value(inst, alpha, grid)
    return upper - lower, (lower, upper)
