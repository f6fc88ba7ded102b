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

Grid points are enumerated in lexicographic order through the partial
sums of their parts, in chunks of GRID_CHUNK_ROWS points (the last one
may be shorter), so memory stays bounded whatever the point cap.
itertools walks the prefixes, the first m - 2 sums, and numpy expands
each prefix over every value of the last sum, so Python steps once per
prefix rather than once per point.  Each chunk is evaluated in numpy at
once: the adversary's closed form directly, SOC's water-fills through
the batched kernel `waterfill_rows`, which is bit-identical to the
scalar one row by row.  So each point's value, and each bound, is the
float that a loop over single points would compute, however the grid
is chunked.

numpy is imported by the functions that use it, not by this module, so
`import malice` and every CLI subcommand but `verify` run without it.
"""

import itertools
import math
from dataclasses import dataclass

from .errors import GridTooLarge, InvalidRange
from .flows import waterfill_rows
from .model import Instance, check_alpha, check_sum

DEFAULT_POINT_CAP = 2_000_000
GRID_CHUNK_ROWS = 2_048  # points per chunk, prefixes per batch: bounds memory, keeps it in cache


@dataclass(frozen=True)
class GridSpec:
    """Each player's simplex discretized into multiples of mass/resolution."""

    resolution: int

    def __post_init__(self):
        # a bool is an int to Python, but True is no resolution
        if isinstance(self.resolution, bool) or not isinstance(self.resolution, int) \
                or self.resolution < 1:
            raise InvalidRange(f"grid resolution must be a positive integer, got {self.resolution}")

    def points(self, m: int) -> int:
        """Number of grid points on an m-link simplex."""
        return math.comb(self.resolution + m - 1, m - 1)


def _prefix_batches(n: int, m: int):
    """Yield the grid's prefixes, the first m - 2 partial sums, lexicographically,
    in batches of at most GRID_CHUNK_ROWS as (heads, lasts, ends): row i of
    heads holds prefix i's parts and two columns left for a point's last two,
    lasts[i] is its last sum, and ends[i] counts the points of prefixes 0..i,
    since a point's last sum runs from its prefix's last sum up to n.
    """
    import numpy as np

    # the m - 1 sums that start with 0 come first, and after the 0 they are
    # the prefixes in order: each row arrives with the 0 its first part needs
    prefixes = itertools.combinations_with_replacement(range(n + 1), m - 1)
    left = math.comb(n + m - 2, m - 2)
    while left:
        count = min(left, GRID_CHUNK_ROWS)
        sums = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(prefixes, count)),
            dtype=np.int64, count=count * (m - 1),
        ).reshape(count, m - 1)
        heads = np.empty((count, m), dtype=np.int64)
        np.subtract(sums[:, 1:], sums[:, :-1], out=heads[:, :m - 2])
        lasts = sums[:, -1]
        yield heads, lasts, np.cumsum(n + 1 - lasts)
        left -= count


def _grid_chunks(n: int, m: int):
    """Yield the compositions of n into m nonnegative parts, lexicographically,
    as int64 arrays of GRID_CHUNK_ROWS rows, the last one of at most as many.

    The partial sums 0 <= c_1 <= ... <= c_{m-1} <= n in lexicographic order
    give the compositions in lexicographic order; the parts are the
    differences of consecutive sums, padded by 0 before and n after.  Row r
    of a prefix batch has the first prefix whose end exceeds r, and the last
    sum n + 1 + r - that end.  Chunks need not line up with batches or with
    prefixes.
    """
    import numpy as np

    if m == 1:
        yield np.full((1, 1), n, dtype=np.int64)
        return
    batches = _prefix_batches(n, m)
    done = total = 0  # rows of the current batch taken, and its row count
    left = math.comb(n + m - 1, m - 1)
    while left:
        parts = np.empty((min(left, GRID_CHUNK_ROWS), m), dtype=np.int64)
        filled = 0
        while filled < len(parts):
            if done == total:
                heads, lasts, ends = next(batches)
                done, total = 0, int(ends[-1])
            take = min(len(parts) - filled, total - done)
            row = np.arange(done, done + take)
            prefix = np.searchsorted(ends, row, side="right")
            block = parts[filled:filled + take]
            # every index is in range; "clip" lets take write into block unbuffered
            np.take(heads, prefix, axis=0, out=block, mode="clip")
            last = row - ends[prefix] + (n + 1)
            block[:, m - 2] = last - lasts[prefix]
            block[:, m - 1] = n - last
            filled += take
            done += take
        yield parts
        left -= len(parts)


def simplex_grid(n: int, m: int):
    """Yield the compositions of n into m nonnegative parts, lexicographically."""
    for chunk in _grid_chunks(n, m):
        yield from map(tuple, chunk.tolist())


def _checked_inputs(inst: Instance, alpha: float, grid: GridSpec):
    """The checked alpha and the coefficients as arrays, once the grid fits its cap."""
    import numpy as np

    alpha = check_alpha(alpha)
    count = grid.points(inst.m)
    # one link has a single grid point at any resolution, but enumerating it
    # walks a range as long as the resolution, so the cap bounds both
    if max(count, grid.resolution) > DEFAULT_POINT_CAP:
        raise GridTooLarge(
            f"{count} grid points on {inst.m} links at resolution {grid.resolution} "
            f"exceed the cap {DEFAULT_POINT_CAP}"
        )
    return alpha, np.array(inst.slopes), np.array(inst.intercepts)


def soc_mal_value(inst: Instance, alpha: float, grid: GridSpec) -> float:
    """min over gridded SOC strategies of the exact adversarial best response.

    An upper bound on the game value, tight to O(1/resolution).
    """
    import numpy as np

    alpha, a, b = _checked_inputs(inst, alpha, grid)
    best = math.inf
    for parts in _grid_chunks(grid.resolution, inst.m):
        y = (1.0 - alpha) * (parts / grid.resolution)
        # all adversarial mass lands on the link maximizing a_k y_k (first
        # index on ties); replace that link's cost term accordingly
        t = np.argmax(y * a, axis=1)
        per_link = y * (y * a + b)
        rows = np.arange(y.shape[0])
        yt = y[rows, t]
        values = per_link.sum(axis=1) - per_link[rows, t] + yt * (a[t] * (alpha + yt) + b[t])
        best = min(best, float(values.min()))
    return best


def mal_soc_value(inst: Instance, alpha: float, grid: GridSpec) -> float:
    """max over gridded adversarial strategies of SOC's exact best reply.

    A lower bound on the game value, tight to O(1/resolution).  A reply
    whose loads miss SOC's mass 1 - alpha raises InvalidMass, as a Flow
    of those loads would, rather than enter the bound.
    """
    import numpy as np

    alpha, a, b = _checked_inputs(inst, alpha, grid)
    doubled = 2.0 * a
    beta = 1.0 - alpha
    best = -math.inf
    for parts in _grid_chunks(grid.resolution, inst.m):
        x = alpha * (parts / grid.resolution)
        _, y = waterfill_rows(doubled, a * x + b, beta)
        # summed link by link in index order, as a point-by-point loop and Flow would
        values = np.zeros(len(y))
        totals = np.zeros(len(y))
        for i in range(inst.m):
            values += y[:, i] * (a[i] * (x[:, i] + y[:, i]) + b[i])
            totals += y[:, i]
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
