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
combinatorial number system, in chunks of GRID_CHUNK_ROWS points (the
last one may be shorter): Python steps once per chunk and part, never
per point, and memory grows with the links, not the points.  Each chunk
is evaluated in numpy at once: the adversary's closed form directly,
SOC's water-fills through the batched kernel `waterfill_rows`, which is
bit-identical to the scalar one row by row.  So each point's value, and
each bound, is the float that a loop over single points would compute,
however the grid is chunked.

Both caps are checked where the grid is built, so `simplex_grid` and
both bounds share them: DEFAULT_POINT_CAP on the points and the
resolution, and DEFAULT_CELL_CAP on points times links, with which a
many-link grid's memory and time grow.

numpy is imported by the functions that use it, not by this module, so
`import malice` and every CLI subcommand but `verify` run without it.
"""

import math
from dataclasses import dataclass

from .errors import GridTooLarge, InvalidRange
from .flows import waterfill_rows
from .model import Instance, check_alpha, check_sum

DEFAULT_POINT_CAP = 2_000_000
DEFAULT_CELL_CAP = 16_000_000  # points times links: bounds a many-link grid's memory and time
GRID_CHUNK_ROWS = 2_048  # points per chunk: bounds memory, keeps it in cache


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


def _grid_chunks(n: int, m: int):
    """Yield the compositions of n into m nonnegative parts, lexicographically,
    as int64 arrays of GRID_CHUNK_ROWS rows, the last one of at most as many.

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
    """
    import numpy as np

    total = math.comb(n + m - 1, m - 1)
    # one link has a single grid point at any resolution, so cap the resolution too
    if max(total, n) > DEFAULT_POINT_CAP:
        raise GridTooLarge(
            f"{total} grid points on {m} links at resolution {n} "
            f"exceed the cap {DEFAULT_POINT_CAP}"
        )
    if total * m > DEFAULT_CELL_CAP:
        raise GridTooLarge(
            f"{total * m} grid cells ({total} points on {m} links at resolution {n}) "
            f"exceed the cap {DEFAULT_CELL_CAP}"
        )
    if m == 1:
        yield np.full((1, 1), n, dtype=np.int64)
        return
    counts = np.zeros((m - 2, n + 2), dtype=np.int64)
    sizes = np.arange(1, n + 2)  # s + 1: the compositions of s into two parts
    for table in counts[::-1]:
        sizes = np.cumsum(sizes, out=table[1:])
    for start in range(total - 1, -1, -GRID_CHUNK_ROWS):
        u = np.arange(start, max(start - GRID_CHUNK_ROWS, -1), -1)
        parts = np.empty((len(u), m), dtype=np.int64)
        rest = n
        for j, table in enumerate(counts):
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


def _checked_inputs(inst: Instance, alpha: float):
    """The checked alpha and the coefficients as arrays."""
    import numpy as np

    return check_alpha(alpha), np.array(inst.slopes), np.array(inst.intercepts)


def soc_mal_value(inst: Instance, alpha: float, grid: GridSpec) -> float:
    """min over gridded SOC strategies of the exact adversarial best response.

    An upper bound on the game value, tight to O(1/resolution).
    """
    import numpy as np

    alpha, a, b = _checked_inputs(inst, alpha)
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

    alpha, a, b = _checked_inputs(inst, alpha)
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
