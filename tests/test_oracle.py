import math
import random
import sys
import threading
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from malice import (
    GridSpec,
    GridTooLarge,
    InvalidMass,
    InvalidRange,
    flow_cost,
    mal_soc_value,
    minimax_gap,
    network,
    pigou,
    pure_equilibrium,
    random_instance,
    simplex_grid,
    soc_mal_value,
    system_optimum,
    tight,
    validate,
    wardrop_flow,
)
import malice.flows
import malice.oracle
from malice.flows import waterfill_rows
from malice.oracle import (
    DEFAULT_CELL_CAP,
    DEFAULT_POINT_CAP,
    GRID_CHUNK_CELLS,
    GRID_CHUNK_ROWS,
    _grid_chunks,
    _replies,
    _resolution,
    _seeds,
    _unit_chunks,
)

from _support import (
    count_calls,
    oracle_ensemble,
    reference_mal_soc_value,
    reference_simplex_grid,
    reference_soc_mal_value,
    wide_ensemble,
)


def test_grid_spec_validation():
    with pytest.raises(InvalidRange):
        GridSpec(0)
    with pytest.raises(InvalidRange):
        GridSpec(1.5)
    with pytest.raises(InvalidRange):
        GridSpec(True)


def test_grid_spec_points():
    assert GridSpec(200).points(3) == math.comb(202, 2)
    assert GridSpec(200).points(1) == 1
    assert GridSpec(4).points(2) == 5


def test_impossible_grid_sizes_are_invalid_range():
    # a resolution is an int >= 0 and a link count an int >= 1, bools excluded
    for n, m in ((-1, 3), (1.5, 3), (True, 2)):
        with pytest.raises(InvalidRange, match="^grid resolution must be a nonnegative integer"):
            next(simplex_grid(n, m))
    for n, m in ((2, 0), (3, -2), (3, 1.0), (3, True)):
        with pytest.raises(InvalidRange, match="^link count must be a positive integer"):
            next(simplex_grid(n, m))
    for m in (0, -4, 2.5, True):
        with pytest.raises(InvalidRange, match="^link count must be a positive integer"):
            GridSpec(3).points(m)
    assert list(simplex_grid(0, 3)) == [(0, 0, 0)]


def _admitted(n, m):
    """Whether the caps admit the grid of resolution n on m links."""
    count = math.comb(n + m - 1, m - 1)
    return max(count, n) <= DEFAULT_POINT_CAP and count * m <= DEFAULT_CELL_CAP


def test_grid_spec_points_is_comb_on_every_admitted_shape():
    # every shape on 3 to 4,000 links (the cell cap admits none on more);
    # on 1 and 2 links the count takes at most one step, so edges suffice
    shapes = 0
    for m in range(3, 4002):
        n = 1
        while _admitted(n, m):
            assert GridSpec(n).points(m) == math.comb(n + m - 1, m - 1), (n, m)
            n += 1
            shapes += 1
        if n == 1:
            break
    assert m == 4001 and shapes > 6_000
    edges = [*range(1, 2049), *range(DEFAULT_POINT_CAP - 2048, DEFAULT_POINT_CAP + 1)]
    for m in (1, 2):
        for n in filter(lambda n: _admitted(n, m), edges):
            assert GridSpec(n).points(m) == math.comb(n + m - 1, m - 1), (n, m)
    # past the bound on printed counts it refuses, however large the grid
    for m in (10**5, 10**6):
        start = time.perf_counter()
        with pytest.raises(GridTooLarge, match=f"^more than 1e\\+18 grid points on {m} links"):
            GridSpec(10**20).points(m)
        assert time.perf_counter() - start < 0.05


def test_grid_too_large():
    inst = validate([(1, 0)] * 8)
    with pytest.raises(GridTooLarge):
        soc_mal_value(inst, 0.5, GridSpec(200))
    with pytest.raises(GridTooLarge):
        mal_soc_value(pigou(), 0.5, GridSpec(DEFAULT_POINT_CAP))
    # one link has a single grid point, but the resolution is capped too
    with pytest.raises(GridTooLarge):
        minimax_gap(validate([(1.0, 0.0)]), 0.5, GridSpec(10**20))


def test_grid_cap_holds_at_any_size():
    # the exact count on 1,000 links at 10**20 has about 17,000 digits, too
    # many to print and slow to compute, so the caps stop counting early
    inst = network(1000)
    for resolution in (10**20, 10**5000):
        start = time.perf_counter()
        with pytest.raises(GridTooLarge, match=r"^more than 1e\+18 grid points on 1000 links"):
            minimax_gap(inst, 0.5, GridSpec(resolution))
        assert time.perf_counter() - start < 0.05
    # counts up to the printing bound are exact, as is the number of points
    with pytest.raises(GridTooLarge, match=r"^2049066634 grid points on 4 links at resolution 2306 "):
        next(_grid_chunks(2306, 4))
    assert [len(chunk) for chunk in _grid_chunks(0, 5000)] == [1]


def test_simplex_grid_enumeration():
    assert list(simplex_grid(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    points = list(simplex_grid(5, 3))
    assert len(points) == math.comb(7, 2)
    assert points == sorted(points)
    assert all(sum(p) == 5 for p in points)
    assert list(simplex_grid(3, 1)) == [(3,)]


def test_chunked_grid_matches_recursive_order():
    for n, m in ((0, 1), (3, 1), (0, 3), (1, 2), (5, 3), (7, 4), (4, 6)):
        expected = list(reference_simplex_grid(n, m))
        assert list(simplex_grid(n, m)) == expected
        assert [tuple(row) for chunk in _grid_chunks(n, m) for row in chunk.tolist()] == expected
    # 80,601 points: more than one chunk, and the order holds across the seams
    chunks = list(_grid_chunks(400, 3))
    assert len(chunks) > 1
    assert all(len(chunk) == GRID_CHUNK_ROWS for chunk in chunks[:-1])
    assert 0 < len(chunks[-1]) <= GRID_CHUNK_ROWS
    assert [tuple(row) for chunk in chunks for row in chunk.tolist()] == list(reference_simplex_grid(400, 3))


def test_reference_simplex_grid_is_lexicographic():
    for n, m in ((0, 1), (3, 1), (0, 3), (1, 2), (5, 3), (7, 4), (4, 6), (2, 30)):
        points = list(reference_simplex_grid(n, m))
        assert len(points) == math.comb(n + m - 1, m - 1)
        assert all(a < b for a, b in zip(points, points[1:]))
        assert all(len(p) == m and min(p) >= 0 and sum(p) == n for p in points)


def test_grid_chunks_across_seams_and_many_links():
    # (5000, 2): 5,001 points span three chunks.  (70, 4): 62,196 points in 31
    # chunks, whose seams fall inside the blocks of every part.
    for n, m, count in ((5000, 2, 3), (70, 4, 31)):
        chunks = list(_grid_chunks(n, m))
        assert len(chunks) == count
        assert all(len(chunk) == GRID_CHUNK_ROWS for chunk in chunks[:-1])
        assert [tuple(row) for chunk in chunks for row in chunk.tolist()] == list(reference_simplex_grid(n, m))
    # more links than the default recursion limit: one unit on 1,200 links is
    # a unit vector, and lexicographically the last link's comes first
    chunks = list(_grid_chunks(1, 1200))
    assert len(chunks) == 1
    assert np.array_equal(chunks[0], np.eye(1200, dtype=np.int64)[::-1])
    # (2, 150): 11,325 points on 150 links, six chunks
    for n, m in ((1, 1200), (2, 150)):
        assert [tuple(row) for chunk in _grid_chunks(n, m) for row in chunk.tolist()] == list(reference_simplex_grid(n, m))


def test_grid_caps_bound_every_grid():
    # the caps hold where the grid is built, so simplex_grid has them too
    with pytest.raises(GridTooLarge):
        next(simplex_grid(2000, 3))
    with pytest.raises(GridTooLarge):
        next(simplex_grid(10**20, 3))
    # 11 links at resolution 14: 1,961,256 points, within the point cap, but
    # 21,573,816 cells; resolution 13 has 12,584,726
    with pytest.raises(GridTooLarge, match="cells"):
        next(_grid_chunks(14, 11))
    assert len(next(_grid_chunks(13, 11))) == GRID_CHUNK_ROWS
    # 40,000 points on 40,000 links: rejected before the first 655 MB chunk,
    # or anything else the grid needs, is allocated
    inst = validate([(1.0, 0.0)] * 40_000)
    tracemalloc.start()
    try:
        with pytest.raises(GridTooLarge, match=f"1600000000 grid cells .* exceed the cap {DEFAULT_CELL_CAP}"):
            minimax_gap(inst, 0.5, GridSpec(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_both_bounds_are_bit_identical_however_the_grid_is_chunked(monkeypatch):
    cases = [(inst, alpha, n) for inst, alpha in oracle_ensemble(6) for n in (9, 40)]
    cases += [
        (random_instance(seed=36, m=4), 0.7, 12),
        (validate([(0, 1), (0, 1), (2, 0)]), 0.3, 10),   # zero-slope ties
        (random_instance(seed=37, m=1), 0.4, 9),
    ]

    def bounds():
        return [(soc_mal_value(inst, alpha, GridSpec(n)).hex(), mal_soc_value(inst, alpha, GridSpec(n)).hex())
                for inst, alpha, n in cases]

    default = bounds()
    # 7 rows per chunk, then the cell budget's rows: 17 // m, one row on 17 links or more
    monkeypatch.setattr(malice.oracle, "GRID_CHUNK_ROWS", 7)
    assert bounds() == default
    assert [len(chunk) for chunk in _grid_chunks(40, 3)] == [7] * 123  # 861 points
    monkeypatch.setattr(malice.oracle, "GRID_CHUNK_CELLS", 17)
    assert bounds() == default
    assert [len(chunk) for chunk in _grid_chunks(40, 3)] == [5] * 172 + [1]
    assert [len(chunk) for chunk in _grid_chunks(1, 20)] == [1] * 20


def test_grid_chunks_bound_the_memory_of_many_links():
    # the budget keeps 2,048 rows up to 1,024 links and gives fewer beyond
    assert GRID_CHUNK_CELLS // 1024 == GRID_CHUNK_ROWS
    assert [len(chunk) for chunk in _grid_chunks(1, 2049)] == [1023, 1023, 3]
    # 2,000 points on 2,000 links: one chunk of all of them peaked at 192 MB
    inst = validate([(1.0, 0.0)] * 2000)
    tracemalloc.start()
    try:
        gap, _ = minimax_gap(inst, 0.5, GridSpec(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gap >= 0.0
    assert peak < 130_000_000


def _bounds_hex(inst, alpha, n):
    gap, (lower, upper) = minimax_gap(inst, alpha, GridSpec(n))
    return gap.hex(), lower.hex(), upper.hex()


def test_minimax_gap_enumerates_each_grid_once(monkeypatch):
    monkeypatch.setattr(malice.oracle, "_kept_grid", None)
    calls = count_calls(monkeypatch, _grid_chunks)
    first, second = random_instance(seed=38, m=3), random_instance(seed=39, m=3)
    bounds = _bounds_hex(first, 0.5, 30)
    assert calls["_grid_chunks"] == 1
    assert _bounds_hex(first, 0.5, 30) == bounds
    # another instance and alpha at the same resolution and link count enumerate nothing
    kept = _bounds_hex(second, 0.2, 30)
    assert calls["_grid_chunks"] == 1
    # and give the bounds that a fresh enumeration gives
    monkeypatch.setattr(malice.oracle, "_kept_grid", None)
    assert _bounds_hex(second, 0.2, 30) == kept
    assert _bounds_hex(first, 0.5, 30) == bounds
    assert calls["_grid_chunks"] == 2
    # another size replaces the kept grid
    minimax_gap(first, 0.5, GridSpec(31))
    minimax_gap(first, 0.5, GridSpec(30))
    assert calls["_grid_chunks"] == 4


def test_a_kept_grid_follows_the_chunk_layout(monkeypatch):
    inst, alpha = random_instance(seed=33, m=3), 0.6

    def bounds():
        return soc_mal_value(inst, alpha, GridSpec(40)).hex(), mal_soc_value(inst, alpha, GridSpec(40)).hex()

    default = bounds()
    assert malice.oracle._kept_grid[0] == (40, 3, GRID_CHUNK_ROWS, GRID_CHUNK_CELLS)
    # the layout a test sets is the layout it gets, kept grid or not
    monkeypatch.setattr(malice.oracle, "GRID_CHUNK_ROWS", 7)
    assert [len(chunk) for chunk in _unit_chunks(40, 3)] == [7] * 123  # 861 points
    assert bounds() == default
    monkeypatch.setattr(malice.oracle, "GRID_CHUNK_CELLS", 17)
    assert [len(chunk) for chunk in _unit_chunks(40, 3)] == [5] * 172 + [1]
    assert bounds() == default
    # every chunk holds the points over the resolution, link-major
    for unit, parts in zip(_unit_chunks(40, 3), _grid_chunks(40, 3)):
        assert unit.flags.f_contiguous
        assert np.array_equal(unit, parts / 40)


def test_a_grid_above_the_chunk_budget_is_never_kept(monkeypatch):
    inst = random_instance(seed=34, m=3)
    minimax_gap(inst, 0.5, GridSpec(12))
    kept = malice.oracle._kept_grid
    # 1,449 points on 1,449 links: 2,099,601 cells, just above GRID_CHUNK_CELLS
    assert 1448**2 <= GRID_CHUNK_CELLS < 1449**2
    assert sum(chunk.size for chunk in _unit_chunks(1, 1449)) == 1449**2
    assert malice.oracle._kept_grid is kept
    # (10, 3) has 66 points, 198 cells: one cell over the budget is streamed
    # by both bounds, and a budget of exactly its cells keeps it
    calls = count_calls(monkeypatch, _grid_chunks)
    monkeypatch.setattr(malice.oracle, "GRID_CHUNK_CELLS", 197)
    streamed = _bounds_hex(inst, 0.5, 10)
    assert calls["_grid_chunks"] == 2
    assert malice.oracle._kept_grid is kept
    monkeypatch.setattr(malice.oracle, "GRID_CHUNK_CELLS", 198)
    assert _bounds_hex(inst, 0.5, 10) == streamed
    assert calls["_grid_chunks"] == 3
    assert malice.oracle._kept_grid[0] == (10, 3, GRID_CHUNK_ROWS, 198)


def test_grid_chunks_are_read_only():
    minimax_gap(random_instance(seed=35, m=3), 0.5, GridSpec(12))
    key, chunks = malice.oracle._kept_grid
    assert key == (12, 3, GRID_CHUNK_ROWS, GRID_CHUNK_CELLS)
    with pytest.raises(ValueError):
        chunks[0][0, 0] = 1.0
    with pytest.raises(ValueError):
        chunks[0][:, 1] *= 2.0
    # a streamed chunk too
    with pytest.raises(ValueError):
        next(_unit_chunks(1, 1449))[0, 0] = 1.0
    assert np.array_equal(chunks[0], next(_grid_chunks(12, 3)) / 12)


def test_a_failed_or_stopped_enumeration_leaves_the_kept_grid(monkeypatch):
    inst = random_instance(seed=36, m=3)
    minimax_gap(inst, 0.5, GridSpec(12))
    kept = malice.oracle._kept_grid
    with pytest.raises(GridTooLarge):
        minimax_gap(validate([(1.0, 0.0)]), 0.5, GridSpec(10**20))  # one cell, but the resolution is capped
    with pytest.raises(GridTooLarge):
        minimax_gap(validate([(1.0, 0.0)] * 8), 0.5, GridSpec(200))
    for resolution in (-1, 0):  # no GridSpec would hold either
        with pytest.raises(InvalidRange, match="^grid resolution must be a positive integer"):
            minimax_gap(inst, 0.5, SimpleNamespace(resolution=resolution))
    chunks = _unit_chunks(400, 3)  # 80,601 points in 40 chunks, of which one is read
    next(chunks)
    chunks.close()
    assert malice.oracle._kept_grid is kept
    calls = count_calls(monkeypatch, _grid_chunks)
    minimax_gap(inst, 0.5, GridSpec(12))
    assert calls["_grid_chunks"] == 0


def test_threads_sharing_the_kept_grid_agree():
    # more threads than cores, switching often, on two sizes that keep
    # replacing each other's grid
    inst = random_instance(seed=37, m=3)
    expected = {n: _bounds_hex(inst, 0.3, n) for n in (20, 21)}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            outcomes = []

            def bracket(sizes):
                outcomes.append({n: _bounds_hex(inst, 0.3, n) for n in sizes})

            threads = [threading.Thread(target=bracket, args=((20, 21) if k % 2 else (21, 20),)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert outcomes == [expected] * len(threads)
    finally:
        sys.setswitchinterval(interval)


def test_single_link_has_no_strategic_choice():
    for links, alpha in (
        ([(3.0, 2.0)], 0.3),
        ([(0.0, 5.0)], 0.6),
        ([(7.0, 0.0)], 0.5),
    ):
        inst = validate(links)
        a, b = links[0]
        expected = (1 - alpha) * (a * 1.0 + b)
        gap, (lower, upper) = minimax_gap(inst, alpha, GridSpec(17))
        assert gap == 0.0
        assert lower == upper
        assert upper == pytest.approx(expected, abs=1e-12)


def test_pigou_bracket():
    inst = pigou()
    upper = soc_mal_value(inst, 0.5, GridSpec(200))
    lower = mal_soc_value(inst, 0.5, GridSpec(200))
    assert upper == pytest.approx(0.4375, abs=0.01)
    assert lower == pytest.approx(0.4375, abs=0.01)
    gap, bracket = minimax_gap(inst, 0.5, GridSpec(400))
    assert gap <= 0.01
    assert bracket[0] - 1e-9 <= 0.4375 <= bracket[1] + 1e-9


def test_tight_bracket():
    inst = tight(10)
    assert soc_mal_value(inst, 0.5, GridSpec(200)) == pytest.approx(0.5, abs=0.02)
    assert mal_soc_value(inst, 0.5, GridSpec(200)) == pytest.approx(0.5, abs=0.02)
    _, bracket = minimax_gap(inst, 0.5, GridSpec(400))
    assert bracket[0] - 1e-9 <= 0.5 <= bracket[1] + 1e-9


def test_no_adversary_lower_bound_is_exact():
    for inst in (pigou(), tight(10), validate([(2, 1), (1, 2), (3, 0)])):
        expected = flow_cost(inst, system_optimum(inst, 1.0)[0])
        assert mal_soc_value(inst, 0.0, GridSpec(5)) == expected


def test_lower_bound_rejects_replies_that_miss_their_mass():
    # the water-fill level rounds back to the intercept and places nothing;
    # the pure equilibrium rejects the instance the same way
    inst = validate([(1e-17, 1.0)])
    with pytest.raises(InvalidMass):
        pure_equilibrium(inst, 0.5)
    with pytest.raises(InvalidMass):
        minimax_gap(inst, 0.5, GridSpec(10))


def test_mal_soc_value_equals_point_by_point_reference():
    cases = [(inst, alpha, n) for inst, alpha in oracle_ensemble(8) for n in (7, 40)]
    cases += [
        (random_instance(seed=31, m=1), 0.4, 9),
        (random_instance(seed=32, m=4), 0.7, 12),
        (random_instance(seed=0, m=3), 0.3, 12),           # sensitive to the order of summation
        (validate([(0, 1), (0, 1), (2, 0)]), 0.3, 10),   # zero-slope ties
        (validate([(1, 0), (1, 0), (1, 0)]), 0.5, 10),   # symmetric links
        (tight(10), 0.0, 10),
        (random_instance(seed=33, m=3), 0.6, 400),         # more than one chunk
        (random_instance(seed=35, m=2), 0.5, 5000),        # one prefix across three chunks
    ]
    for inst, alpha, n in cases:
        assert mal_soc_value(inst, alpha, GridSpec(n)) == reference_mal_soc_value(inst, alpha, n)


def _plateau_and_wide_cases():
    """Lower-bound cases where many points tie at the top, or the range is wide."""
    cases = [
        (validate([(0, 1), (1, 0.5), (2, 0)]), 0.6, 40),          # a zero-slope link caps SOC's level
        (validate([(7.4, 6.7), (0, 9.8), (0, 2.4)]), 0.3, 30),    # SOC's level pinned at every point
        (validate([(3.5, 0), (0, 0.17), (4, 3.1)]), 0.1, 50),     # pinned on part of the grid
        (validate([(1, 0), (1, 0), (1, 0), (1, 0)]), 0.5, 12),    # symmetric links
        (validate([(2, 1), (2, 1)]), 0.4, 30),
        (random_instance(seed=42, m=3), 0.0, 20),                 # alpha = 0: no planes
        (random_instance(seed=42, m=3), 1.0, 20),                 # SOC has no mass
    ]
    wide = [inst for inst in wide_ensemble(12, seed=5) if inst.m <= 4]
    cases += [(inst, 0.1 + 0.2 * (k % 4), 12) for k, inst in enumerate(wide)]
    return cases


def _vertex_seeds(a, b, alpha, n, m):
    """The first vertex and its one-unit moves: seeds far from MAL's optimum."""
    seeds = np.zeros((m, m), dtype=np.int64)
    seeds[:, 0] = n
    seeds[1:, 0] -= 1
    seeds[np.arange(1, m), np.arange(1, m)] += 1
    return seeds


def _rim_seeds(a, b, alpha, n, m, seeds=malice.oracle._seeds):
    """The one-unit moves without the nearest point they move from: seeds
    whose best value lies just below the grid's, which a plane must not drop."""
    rows = seeds(a, b, alpha, n, m)
    return rows if rows is None or len(rows) < 3 else rows[1:]


@pytest.mark.parametrize("seeds", [None, _vertex_seeds, _rim_seeds])
def test_mal_soc_value_equals_reference_whatever_the_seeds(monkeypatch, seeds):
    # plateaus, wide ranges and m = 4, 5, with MAL's seeds and with bad ones
    cases = [(inst, alpha, n) for inst, alpha in oracle_ensemble(6) for n in (9, 40, 100)]
    cases += [(random_instance(seed=43 + m, m=m), 0.5, 10) for m in (4, 5)]
    cases += _plateau_and_wide_cases()
    assert len(cases) > 30
    if seeds is not None:
        monkeypatch.setattr(malice.oracle, "_seeds", seeds)
    for inst, alpha, n in cases:
        assert mal_soc_value(inst, alpha, GridSpec(n)) == reference_mal_soc_value(inst, alpha, n), (inst, alpha, n)


def test_the_lower_bound_water_fills_few_of_its_points(monkeypatch):
    rows = []  # of each waterfill_rows call

    def counted(slopes, intercepts, mass):
        rows.append(len(intercepts))
        return waterfill_rows(slopes, intercepts, mass)

    monkeypatch.setattr(malice.oracle, "waterfill_rows", counted)
    inst = random_instance(seed=44, m=3)
    assert inst.m == 3 and min(inst.slopes) > 0.0
    assert mal_soc_value(inst, 0.5, GridSpec(100)) == reference_mal_soc_value(inst, 0.5, 100)
    # MAL's selfish flow, the seeds, and what the planes keep of 5,151 points
    assert 2 <= len(rows) and sum(rows) < 100
    # with seeds at a vertex the planes still drop points, and the bound holds
    rows.clear()
    monkeypatch.setattr(malice.oracle, "_seeds", _vertex_seeds)
    assert mal_soc_value(inst, 0.5, GridSpec(100)) == reference_mal_soc_value(inst, 0.5, 100)
    assert sum(rows) < GridSpec(100).points(3)


# whole-grid plateaus: a zero-slope link lies below every positive-slope
# intercept by more than the margin, so SOC's level is pinned there everywhere
PLATEAUS = [
    validate([(1, 2), (0, 1), (3, 1.5)]),          # one zero-slope link
    validate([(7.4, 6.7), (0, 9.8), (0, 2.4)]),    # and a higher one
    validate([(0, 0), (1, 1e-3), (4, 0.5)]),       # at intercept 0
    validate([(0, 1), (2, 4), (0, 1), (0, 3)]),    # two tied at the level
    validate([(0, 2), (0, 2), (0, 5)]),            # every link flat
    validate([(0, 5)]),                            # one link
]


def _outcome(fn, inst, alpha, grid):
    """fn's bound as hex floats, or its error as (class, message)."""
    try:
        result = fn(inst, alpha, grid)
    except (GridTooLarge, InvalidMass, InvalidRange) as exc:
        return type(exc), str(exc)
    if isinstance(result, float):
        return result.hex()
    gap, (lower, upper) = result
    return gap.hex(), lower.hex(), upper.hex()


def test_a_whole_grid_plateau_gives_the_reference_bounds_bit_for_bit():
    assert all(malice.oracle._plateau(inst) for inst in PLATEAUS)
    cases = [(inst, alpha, n) for inst in PLATEAUS for alpha in (0.0, 0.35, 1.0) for n in (1, 9)]
    cases += [(inst, 0.35, 100 if inst.m < 4 else 20) for inst in PLATEAUS]
    for inst, alpha, n in cases:
        lower = reference_mal_soc_value(inst, alpha, n)
        upper = reference_soc_mal_value(inst, alpha, n)
        assert _outcome(mal_soc_value, inst, alpha, GridSpec(n)) == lower.hex(), (inst, alpha, n)
        expected = ((upper - lower).hex(), lower.hex(), upper.hex())
        assert _outcome(minimax_gap, inst, alpha, GridSpec(n)) == expected, (inst, alpha, n)


def test_a_whole_grid_plateau_water_fills_one_row(monkeypatch):
    rows = []  # of each waterfill_rows call

    def counted(slopes, intercepts, mass):
        rows.append(len(intercepts))
        return waterfill_rows(slopes, intercepts, mass)

    monkeypatch.setattr(malice.oracle, "waterfill_rows", counted)
    inst = PLATEAUS[0]
    assert mal_soc_value(inst, 0.5, GridSpec(100)) == reference_mal_soc_value(inst, 0.5, 100)
    assert rows == [1]  # not MAL's selfish flow, the seeds and 5,151 points
    # the margin is 4 (m + 2) epsilons above c, exclusive
    c = 1.0
    threshold = c * (1.0 + 4 * (3 + 2) * sys.float_info.epsilon)
    for b, plateau in ((threshold, False), (math.nextafter(threshold, math.inf), True)):
        inst = validate([(1, b), (0, c), (3, b)])
        rows.clear()
        assert mal_soc_value(inst, 0.5, GridSpec(100)) == reference_mal_soc_value(inst, 0.5, 100)
        assert (rows == [1]) is plateau, b


def test_near_ties_take_the_full_path():
    # b_k == c, one float above it and a few within the margin: at some
    # points a link too flat to lift the level strands SOC's mass, at others
    # it does not, so no point stands for the grid
    stranded = [
        (validate([(0, 1.0), (1e-15, 1.0)]), 0.99),
        (validate([(0, 0.8348771507992095), (2.6836288719318065e-16, 0.8348771507992097)]), 0.999),
        (validate([(0, 3.8116551675025145), (1.6391077765223682e-15, 3.8116551675025154),
                   (3.765859942429265e-14, 3.8116551675025154)]), 0.99),
    ]
    for inst, alpha in stranded:
        assert not malice.oracle._plateau(inst)
        for bound in (mal_soc_value, minimax_gap):
            with pytest.raises(InvalidMass, match=f"^flow entries sum to 0.0, declared mass {1.0 - alpha}$"):
                bound(inst, alpha, GridSpec(10))
    c = 2.0
    tied = [
        validate([(0, c), (1, c), (0.5, 3.0)]),
        validate([(0, c), (1, math.nextafter(c, math.inf)), (0.5, 3.0)]),
        validate([(0, c), (1, c * (1.0 + 8 * sys.float_info.epsilon)), (0.5, 3.0)]),
    ]
    for inst in tied:
        assert not malice.oracle._plateau(inst)
        assert mal_soc_value(inst, 0.4, GridSpec(30)) == reference_mal_soc_value(inst, 0.4, 30)
    # costs that overflow at some points and not at others leave the window
    inst = validate([(0, 1.0), (1.5e308, 1.5e308)])
    assert not malice.oracle._plateau(inst)
    with np.errstate(over="ignore", invalid="ignore"):
        assert mal_soc_value(inst, 0.5, GridSpec(10)) == reference_mal_soc_value(inst, 0.5, 10)


def test_a_whole_grid_plateau_raises_the_full_paths_errors(monkeypatch):
    inst = PLATEAUS[0]
    grids = [GridSpec(DEFAULT_POINT_CAP + 1), GridSpec(2000), 7, SimpleNamespace(resolution=-1),
             SimpleNamespace(resolution=0)]
    outcomes = [_outcome(bound, inst, 0.5, grid) for bound in (mal_soc_value, minimax_gap) for grid in grids]
    assert [kind for kind, _ in outcomes] == ([GridTooLarge] * 2 + [InvalidRange] * 3) * 2
    # the upper bound applies GridSpec's rule too, so resolution 0 is no empty grid
    assert _outcome(soc_mal_value, inst, 0.5, grids[-1]) == outcomes[-1]
    # the seeds-and-planes path raises the same errors with the same messages
    monkeypatch.setattr(malice.oracle, "_plateau", lambda inst: False)
    assert [_outcome(bound, inst, 0.5, grid) for bound in (mal_soc_value, minimax_gap) for grid in grids] == outcomes


def _every_point(inst, alpha, grid):
    """The lower bound over every grid point, through the one evaluation
    path, overflowing as the bound does, without a numpy warning."""
    a, b = np.array(inst.slopes), np.array(inst.intercepts)
    best = -math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for unit in _unit_chunks(_resolution(grid), inst.m):
            values, _ = _replies(a, b, 2.0 * a, alpha, 1.0 - alpha, unit)
            best = max(best, float(np.fmax.reduce(values)))
    return best


def test_at_alpha_zero_one_point_stands_for_the_grid(monkeypatch):
    rows = []  # of each waterfill_rows call

    def counted(slopes, intercepts, mass):
        rows.append(len(intercepts))
        return waterfill_rows(slopes, intercepts, mass)

    # at alpha = 0 every point is x = 0.0 * unit, so SOC's reply is the same
    # everywhere; at alpha = 1 every reply is empty and costs +0.0, also
    # where a link's shifted latency overflows
    instances = [random_instance(seed=60 + k, m=1 + k % 5) for k in range(25)]
    instances += [inst for inst in wide_ensemble(12, seed=9) if inst.m <= 5] + PLATEAUS
    instances += [validate([(0, 1), (1.5e308, 1.5e308)]),
                  validate([(1.1899077126981167e308, 1.5197918592478728e308),
                            (1.6683424528743423e308, 7.773237168161442e307)])]
    monkeypatch.setattr(malice.oracle, "waterfill_rows", counted)
    for alpha in (0.0, 1.0):
        for inst in instances:
            for n in (1, 3, 20):
                rows.clear()
                outcome = _outcome(mal_soc_value, inst, alpha, GridSpec(n))
                assert rows == [1], (inst, alpha, n)
                if isinstance(outcome, str):  # not a wide instance's InvalidMass
                    assert outcome == reference_mal_soc_value(inst, alpha, n).hex(), (inst, alpha, n)
                assert outcome == _outcome(_every_point, inst, alpha, GridSpec(n)), (inst, alpha, n)
    # and it raises what evaluating every point raises, with the message
    stranded = [validate([(1e-17, 1.0)]), validate([(1e-17, 1.0), (3e-17, 1.0)])]
    grids = [GridSpec(4), GridSpec(DEFAULT_POINT_CAP + 1), GridSpec(2000), 7, SimpleNamespace(resolution=-1),
             SimpleNamespace(resolution=0)]
    cases = [(inst, grid) for inst in stranded + PLATEAUS[:1] for grid in grids]
    for alpha, first in ((0.0, InvalidMass), (1.0, "0x0.0p+0")):  # at alpha = 1 no mass is missed
        outcomes = [_outcome(mal_soc_value, inst, alpha, grid) for inst, grid in cases]
        assert [o if isinstance(o, str) else o[0] for o in outcomes[:2]] == [first, GridTooLarge]
        assert outcomes == [_outcome(_every_point, inst, alpha, grid) for inst, grid in cases]


def test_a_nan_row_hides_neither_bound():
    # replies, and SOC strategies under attack, that leave the huge link
    # empty, which 0 * inf would make NaN; every bound is still the
    # reference's float, with no RuntimeWarning
    cases = [(validate([(0, 1), (1.5e308, 1.5e308)]), alpha, n)
             for alpha in (0.0, 0.3, 0.5, 0.9, 1.0) for n in (1, 2, 10, 30, 100)]
    # one of whose seeds, a one-unit move onto the huge link, costs NaN
    cases += [(validate([(9e307, 1.7e308), (0, 1), (3e307, 1.6)]), 0.7, n) for n in (5, 10)]
    for inst, alpha, n in cases:
        lower = reference_mal_soc_value(inst, alpha, n)
        upper = reference_soc_mal_value(inst, alpha, n)
        assert math.isfinite(lower) and math.isfinite(upper)
        assert mal_soc_value(inst, alpha, GridSpec(n)).hex() == lower.hex(), (inst, alpha, n)
        assert soc_mal_value(inst, alpha, GridSpec(n)).hex() == upper.hex(), (inst, alpha, n)
    # every point's reply leaves empty a link whose shifted latency
    # overflows: that link adds +0.0 to the cost, not the NaN of 0 * inf
    inst = validate([(1.1899077126981167e308, 1.5197918592478728e308),
                     (1.6683424528743423e308, 7.773237168161442e307)])
    lower = mal_soc_value(inst, 0.9, GridSpec(2))
    assert lower.hex() == reference_mal_soc_value(inst, 0.9, 2).hex() == (1.6949120658970322e307).hex()
    # all-huge links, whose replies' masses often overflow: wherever no
    # reply misses its mass, both bounds are the references' floats
    rng = random.Random(41)
    compared = 0
    for _ in range(300):
        inst = validate([(rng.uniform(1e307, 1.7e308), rng.uniform(1e307, 1.7e308))
                         for _ in range(rng.choice([2, 3]))])
        alpha = rng.choice([0.0, 0.3, 0.5, 0.9, 1.0, rng.random()])
        n = rng.choice([1, 2, 3, 5, 10])
        upper = reference_soc_mal_value(inst, alpha, n)
        assert soc_mal_value(inst, alpha, GridSpec(n)).hex() == upper.hex(), (inst, alpha, n)
        try:
            lower = mal_soc_value(inst, alpha, GridSpec(n))
        except InvalidMass:
            continue
        assert lower.hex() == reference_mal_soc_value(inst, alpha, n).hex(), (inst, alpha, n)
        compared += 1
    assert compared > 150


def _nearest_point(inst, alpha, n):
    """n times MAL's selfish flow, from the scalar solver, rounded down and
    then up on the links of the largest remainders, the first on ties."""
    loads = wardrop_flow(inst, alpha)[0].values
    total = 0.0
    for load in loads:
        total += load
    target = [load * (n / total) for load in loads]
    parts = [math.floor(share) for share in target]
    for k in sorted(range(inst.m), key=lambda k: (parts[k] - target[k], k))[:n - sum(parts)]:
        parts[k] += 1
    return parts


def test_seeds_are_the_nearest_point_and_its_one_unit_moves():
    rng = random.Random(71)
    cases = []
    for k in range(200):
        m = (1, 2, 3, 3, 4, 5, 6, 8)[k % 8]
        n = rng.choice([3, 10, 40, 100] if m <= 3 else [3, 10, 20])
        cases.append((random_instance(seed=800 + k, m=m), rng.choice([rng.uniform(0.05, 1.0), 1.0]), n))
    cases += [(inst, 0.5, 30) for inst in PLATEAUS[:4]]
    # equal remainders: the extra units go to the first links
    cases += [(validate([(1, 0)] * 3), 0.5, 10), (validate([(2, 1)] * 4), 0.3, 10), (validate([(1, 0)] * 2), 0.5, 5)]
    assert sum(0.0 in inst.slopes for inst, _, _ in cases) > 20
    full = 0
    for inst, alpha, n in cases:
        m = inst.m
        seeds = _seeds(np.array(inst.slopes), np.array(inst.intercepts), alpha, n, m)
        count = 1 + (2 * m if m > 2 else m * (m - 1))
        if count >= GridSpec(n).points(m):
            assert seeds is None, (inst, alpha, n)
            continue
        rows = seeds.tolist()
        parts = rows[0]
        assert parts == _nearest_point(inst, alpha, n), (inst, alpha, n)
        moves = []
        for i in range(m):
            if parts[i]:
                for j in sorted({(i + 1) % m, (i - 1) % m}):
                    move = list(parts)
                    move[i] -= 1
                    move[j] += 1
                    moves.append(move)
        assert rows[1:] == moves
        assert len({tuple(row) for row in rows}) == len(rows)
        assert all(sum(row) == n and min(row) >= 0 for row in rows)
        assert len(rows) <= count
        full += len(rows) == count
    assert full > 10  # every link loaded: 2m + 1 rows, or m(m - 1) + 1 on two links
    # none at alpha = 0, as many as the grid's points, above the budget, or
    # on a flow that is empty or infinite
    inst = random_instance(seed=90, m=22)
    a, b = np.array(inst.slopes), np.array(inst.intercepts)
    assert len(_seeds(a, b, 0.5, 3, 22)) > 1
    assert _seeds(a, b, 0.0, 3, 22) is None
    wider = random_instance(seed=90, m=23)
    assert _seeds(np.array(wider.slopes), np.array(wider.intercepts), 0.5, 3, 23) is None
    three = random_instance(seed=91, m=3)
    a, b = np.array(three.slopes), np.array(three.intercepts)
    assert _seeds(a, b, 0.5, 2, 3) is None and len(_seeds(a, b, 0.5, 3, 3)) > 1
    for links in ([(1e-17, 1.0), (1e-17, 1.0), (2e-17, 1.0)], [(1e-300, 1e308), (1e-300, 1.5e308), (2.0, 1.6e308)]):
        inst = validate(links)
        with np.errstate(over="ignore", invalid="ignore"):  # as inside the bound
            assert _seeds(np.array(inst.slopes), np.array(inst.intercepts), 0.5, 10, 3) is None


def test_soc_mal_value_equals_point_by_point_reference(monkeypatch):
    # numpy's own sum adds eight or more links pairwise, which moved the last
    # bit of both m = 8 and m = 9 at seed 11
    cases = [(random_instance(seed=11, m=8), 0.37, 3), (random_instance(seed=11, m=9), 0.37, 3)]
    cases += [(random_instance(seed=40 + m, m=m), 0.05 + 0.07 * m, 3 if m > 6 else 9) for m in range(1, 13)]
    cases += [
        (validate([(0, 1), (0, 1), (2, 0)]), 0.3, 10),   # zero-slope ties
        (validate([(1, 0), (1, 0.1)]), 0.3, 4),          # tied damage on unequal links:
        (validate([(2, 0), (1, 0)]), 0.5, 6),            # the first of them is attacked
        (random_instance(seed=33, m=3), 0.6, 120),         # more than one chunk
    ]
    expected = [reference_soc_mal_value(inst, alpha, n) for inst, alpha, n in cases]
    assert [soc_mal_value(inst, alpha, GridSpec(n)) for inst, alpha, n in cases] == expected
    # one point per chunk: a single row is contiguous in either layout
    monkeypatch.setattr(malice.oracle, "GRID_CHUNK_ROWS", 1)
    assert [soc_mal_value(inst, alpha, GridSpec(n)) for inst, alpha, n in cases] == expected


def test_mal_soc_value_runs_no_scalar_waterfill(monkeypatch):
    calls = count_calls(monkeypatch, malice.flows.waterfill)
    mal_soc_value(random_instance(seed=34, m=3), 0.5, GridSpec(30))
    assert calls["waterfill"] == 0


def test_weak_duality_convergence_and_bracketing():
    for inst, alpha in oracle_ensemble(6):
        _, certificate = pure_equilibrium(inst, alpha)
        gaps = []
        for n in (25, 50, 100, 200):
            gap, (lower, upper) = minimax_gap(inst, alpha, GridSpec(n))
            assert gap >= -1e-9
            assert lower - 1e-9 <= certificate.value <= upper + 1e-9
            gaps.append(gap)
        for coarse, fine in zip(gaps, gaps[1:]):
            assert fine <= coarse + 1e-9
