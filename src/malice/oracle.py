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

Grid points are enumerated in lexicographic order by stars and bars, in
chunks of at most GRID_CHUNK_ROWS points, so memory stays bounded
whatever the point cap.  Each chunk is evaluated in numpy at once: the
adversary's closed form directly, SOC's water-fills through the batched
kernel `waterfill_rows`, which is bit-identical to the scalar one row
by row.  So each point's value, and each bound, is the float that a
loop over single points would compute, however the grid is chunked.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridTooLarge, InvalidRange
from .flows import waterfill_rows
from .model import Instance, check_alpha, check_sum

DEFAULT_POINT_CAP = 2_000_000
GRID_CHUNK_ROWS = 2_048  # grid points per numpy pass: bounds working memory, keeps it in cache


@dataclass(frozen=True)
class GridSpec:
    """Each player's simplex discretized into multiples of mass/resolution."""

    resolution: int
    max_points: int = DEFAULT_POINT_CAP

    def __post_init__(self):
        if not isinstance(self.resolution, int) or self.resolution < 1:
            raise InvalidRange(f"grid resolution must be a positive integer, got {self.resolution}")
        if not isinstance(self.max_points, int) or self.max_points < 1:
            raise InvalidRange(f"grid point cap must be a positive integer, got {self.max_points}")

    def points(self, m: int) -> int:
        """Number of grid points on an m-link simplex."""
        return math.comb(self.resolution + m - 1, m - 1)


def _grid_chunks(n: int, m: int):
    """Yield the compositions of n into m nonnegative parts, lexicographically,
    as int64 arrays of at most GRID_CHUNK_ROWS rows.

    Stars and bars: the m - 1 bar positions among n + m - 1 slots, taken in
    lexicographic order, give the compositions in lexicographic order; the
    parts are the gaps between consecutive bars, padded by a bar before
    the first slot and one after the last.
    """
    bars = itertools.combinations(range(n + m - 1), m - 1)
    left = math.comb(n + m - 1, m - 1)
    while left:
        rows = min(left, GRID_CHUNK_ROWS)
        padded = np.empty((rows, m + 1), dtype=np.int64)
        padded[:, 0] = -1
        padded[:, m] = n + m - 1
        padded[:, 1:m] = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(bars, rows)),
            dtype=np.int64, count=rows * (m - 1),
        ).reshape(rows, m - 1)
        yield np.diff(padded, axis=1) - 1
        left -= rows


def simplex_grid(n: int, m: int):
    """Yield the compositions of n into m nonnegative parts, lexicographically."""
    for chunk in _grid_chunks(n, m):
        yield from map(tuple, chunk.tolist())


def _checked_inputs(inst: Instance, alpha: float, grid: GridSpec):
    """The checked alpha and the coefficients as arrays, once the grid fits its cap."""
    alpha = check_alpha(alpha)
    count = grid.points(inst.m)
    if count > grid.max_points:
        raise GridTooLarge(
            f"{count} grid points on {inst.m} links at resolution {grid.resolution} "
            f"exceed the cap {grid.max_points}"
        )
    return alpha, np.array(inst.slopes), np.array(inst.intercepts)


def soc_mal_value(inst: Instance, alpha: float, grid: GridSpec) -> float:
    """min over gridded SOC strategies of the exact adversarial best response.

    An upper bound on the game value, tight to O(1/resolution).
    """
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
