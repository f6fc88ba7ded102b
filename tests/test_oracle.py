import math
import random
import statistics
import sys
import threading
import time
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from malice import (
    Flow,
    GridSpec,
    GridTooLarge,
    InvalidMass,
    InvalidRange,
    flow_cost,
    induced_optimum,
    mal_best_response,
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
from malice.flows import waterfill, waterfill_rows
from malice.model import intercept_order
from malice.oracle import (
    DEFAULT_CELL_CAP,
    DEFAULT_POINT_CAP,
    GRID_CHUNK_CELLS,
    GRID_CHUNK_ROWS,

    _attacks,
    _bowl,
    _bowl_slices,
    _plane_points,
    _grid_chunks,
    _link_sum,
    _replies,
    _resolution,
    _seed_attacks,
    _seed_replies,
    _seeds,
    _unit_chunks,
    _worst,
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
    # (20000, 2): 20,001 points span three chunks.  (70, 4): 62,196 points in 8
    # chunks, whose seams fall inside the blocks of every part.
    for n, m, count in ((20000, 2, 3), (70, 4, 8)):
        chunks = list(_grid_chunks(n, m))
        assert len(chunks) == count
        assert all(len(chunk) == GRID_CHUNK_ROWS for chunk in chunks[:-1])
        assert [tuple(row) for chunk in chunks for row in chunk.tolist()] == list(reference_simplex_grid(n, m))
    # more links than the default recursion limit: one unit on 1,200 links is
    # a unit vector, and lexicographically the last link's comes first
    chunks = list(_grid_chunks(1, 1200))
    assert len(chunks) == 1
    assert np.array_equal(chunks[0], np.eye(1200, dtype=np.int64)[::-1])
    # (2, 150): 11,325 points on 150 links, two chunks
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
    # the budget keeps 8,192 rows up to 256 links and gives fewer beyond
    assert GRID_CHUNK_CELLS // 256 == GRID_CHUNK_ROWS
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
    # a grid with seeds is walked, not enumerated; one without seeds is
    # enumerated once by each bound, and the same size again gives the
    # same floats
    calls = count_calls(monkeypatch, _grid_chunks)
    first = random_instance(seed=38, m=3)
    bounds = _bounds_hex(first, 0.5, 30)
    assert calls["_grid_chunks"] == 0
    assert _bounds_hex(first, 0.5, 30) == bounds
    # 23 links are past _seeded's budget of seeds times links
    many = validate([(1 + k % 3, k % 5) for k in range(23)])
    unseeded = _bounds_hex(many, 0.2, 2)
    assert calls["_grid_chunks"] == 2
    assert _bounds_hex(many, 0.2, 2) == unseeded
    assert calls["_grid_chunks"] == 4


def test_a_grid_follows_the_chunk_layout(monkeypatch):
    inst, alpha = random_instance(seed=33, m=3), 0.6

    def bounds():
        return [(soc_mal_value(inst, alpha, GridSpec(n)).hex(), mal_soc_value(inst, alpha, GridSpec(n)).hex())
                for n in (1, 40)]  # resolution 1 has no seeds: 3 points, fewer than 7

    default = bounds()
    # the layout a test sets is the layout it gets, on the walk and the dense path
    monkeypatch.setattr(malice.oracle, "GRID_CHUNK_ROWS", 7)
    assert [len(unit) for _, unit in _unit_chunks(40, 3)] == [7] * 123  # 861 points
    assert bounds() == default
    monkeypatch.setattr(malice.oracle, "GRID_CHUNK_CELLS", 17)
    assert [len(unit) for _, unit in _unit_chunks(40, 3)] == [5] * 172 + [1]
    assert bounds() == default
    # every chunk holds its points and the points over the resolution, link-major
    for (parts, unit), expected in zip(_unit_chunks(40, 3), _grid_chunks(40, 3)):
        assert parts.flags.f_contiguous and unit.flags.f_contiguous
        assert np.array_equal(parts, expected)
        assert np.array_equal(unit, expected / 40)


def test_threads_sharing_the_kept_grid_agree():
    # more threads than cores, switching often, on two sizes: each bound
    # keeps its walk's state and its tables in the call, so no thread sees
    # another's
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
        (random_instance(seed=2, m=3), 5e-324, 20),        # subnormal alphas: no seeds
        (random_instance(seed=3, m=3), 1e-310, 20),
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


def _vertex_seeds(inst, alpha, n):
    """The first vertex and its one-unit moves: seeds far from MAL's optimum."""
    m = inst.m
    seeds = np.zeros((m, m), dtype=np.int64)
    seeds[:, 0] = n
    seeds[1:, 0] -= 1
    seeds[np.arange(1, m), np.arange(1, m)] += 1
    return seeds.tolist()


def _rim_seeds(inst, alpha, n, seeds=malice.oracle._seeds):
    """The one-unit moves without the nearest point they move from: seeds
    whose best value lies just below the grid's, which a plane must not drop."""
    rows = seeds(inst, alpha, n)
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
    inst = random_instance(seed=44, m=3)
    assert inst.m == 3 and min(inst.slopes) > 0.0
    seeds = _seeds(inst, 0.5, 100)
    expected = reference_mal_soc_value(inst, 0.5, 100)
    # MAL's selfish flow, the seeds and what the planes keep of 5,151
    # points, all on the scalar kernel, without a pass over the grid
    calls = count_calls(monkeypatch, waterfill, waterfill_rows, _grid_chunks)
    assert mal_soc_value(inst, 0.5, GridSpec(100)) == expected
    assert set(calls) == {"waterfill"} and 1 + len(seeds) <= calls["waterfill"] < 100, calls
    # with seeds at a vertex the planes still drop points, and the bound holds
    calls.clear()
    monkeypatch.setattr(malice.oracle, "_seeds", _vertex_seeds)
    assert mal_soc_value(inst, 0.5, GridSpec(100)) == expected
    assert set(calls) == {"waterfill"} and calls["waterfill"] < GridSpec(100).points(3), calls


# whole-grid plateaus: a zero-slope link lies below every positive-slope
# intercept by more than the margin, so SOC's level is pinned there everywhere
PLATEAUS = [
    validate([(1, 2), (0, 1), (3, 1.5)]),          # one zero-slope link
    validate([(7.4, 6.7), (0, 9.8), (0, 2.4)]),    # and a higher one
    validate([(0, 0), (1, 1e-3), (4, 0.5)]),       # at intercept 0
    validate([(0, 1), (2, 4), (0, 1), (0, 3)]),    # two tied at the level
    validate([(0, 2), (0, 2), (0, 5)]),            # every link flat
    validate([(0, 5)]),                            # one link
    validate([(1, 1e300), (0, 1), (2, 1e200)]),    # intercepts past 2**500
    validate([(2, 0), (0, 0), (1, 0.5)]),          # a free link, tied at 0 with a sloped one
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
    inst = PLATEAUS[0]
    expected = reference_mal_soc_value(inst, 0.5, 100)
    calls = count_calls(monkeypatch, waterfill, waterfill_rows)
    assert mal_soc_value(inst, 0.5, GridSpec(100)) == expected
    # one scalar water-fill, not MAL's selfish flow, the seeds and 5,151 points
    assert calls == {"waterfill": 1}
    # the margin is 4 (m + 2) epsilons above c, exclusive
    c = 1.0
    threshold = c * (1.0 + 4 * (3 + 2) * sys.float_info.epsilon)
    for b, plateau in ((threshold, False), (math.nextafter(threshold, math.inf), True)):
        inst = validate([(1, b), (0, c), (3, b)])
        expected = reference_mal_soc_value(inst, 0.5, 100)
        calls.clear()
        assert mal_soc_value(inst, 0.5, GridSpec(100)) == expected
        assert (calls == {"waterfill": 1}) is plateau, b


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
    with np.errstate(all="ignore"):
        for _, unit in _unit_chunks(_resolution(grid), inst.m):
            values, _ = _replies(a, b, 2.0 * a, alpha, 1.0 - alpha, unit, None)
            best = max(best, float(np.fmax.reduce(values)))
    return best


def test_at_alpha_zero_one_point_stands_for_the_grid(monkeypatch):
    # at alpha = 0 every point is x = 0.0 * unit, so SOC's reply is the same
    # everywhere; at alpha = 1 every reply is empty and costs +0.0, also
    # where a link's shifted latency overflows
    instances = [random_instance(seed=60 + k, m=1 + k % 5) for k in range(25)]
    instances += [inst for inst in wide_ensemble(12, seed=9) if inst.m <= 5] + PLATEAUS
    instances += [validate([(0, 1), (1.5e308, 1.5e308)]),
                  validate([(1.1899077126981167e308, 1.5197918592478728e308),
                            (1.6683424528743423e308, 7.773237168161442e307)])]
    for alpha in (0.0, 1.0):
        for inst in instances:
            for n in (1, 3, 20):
                with monkeypatch.context() as patch:
                    calls = count_calls(patch, waterfill, waterfill_rows)
                    outcome = _outcome(mal_soc_value, inst, alpha, GridSpec(n))
                assert calls == {"waterfill": 1}, (inst, alpha, n)  # one point, on the scalar kernel
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


# pinned faces: a zero-slope link pins SOC's level at the grid points where
# MAL's load lifts every positive-slope intercept above it, not at every point
PINNED_FACES = [
    (validate([(7.133, 6.306), (0, 6.467), (8.756, 6.173)]), 0.585),
    (validate([(3.5, 0), (0, 0.17), (4, 3.1)]), 0.1),
    (validate([(0, 1), (2, 0.5), (0, 1), (1, 0.9)]), 0.6),    # two zero-slope links tied at the level
    (validate([(0, 1e-9), (2, 0), (5, 1e-3)]), 0.3),          # pinned near intercept 0
]


def _pinned_counts(inst, alpha, n):
    """Per chunk, its rows off the pinned face plus one if any is on it:
    the rows that the lower bound water-fills where it evaluates every
    point, with the face tested here on numpy's own arrays."""
    a, b = np.array(inst.slopes), np.array(inst.intercepts)
    floor = malice.oracle._pin_floor(inst)
    counts = []
    for _, unit in _unit_chunks(n, inst.m):
        pinned = np.count_nonzero((a * (alpha * unit) + b)[:, a > 0.0].min(axis=1) > floor)
        counts.append(len(unit) - pinned + min(pinned, 1))
    return counts


def test_a_pinned_face_gives_the_reference_bound_bit_for_bit(monkeypatch):
    assert not any(malice.oracle._plateau(inst) for inst, _ in PINNED_FACES)
    cases = [(inst, alpha, n) for inst, alpha in PINNED_FACES for n in (9, 100 if inst.m < 4 else 20)]
    expected = [reference_mal_soc_value(inst, alpha, n).hex() for inst, alpha, n in cases]

    def bounds():
        return [mal_soc_value(inst, alpha, GridSpec(n)).hex() for inst, alpha, n in cases]

    assert bounds() == expected
    # a face across chunks of 500 rows, then every point evaluated, without seeds
    monkeypatch.setattr(malice.oracle, "GRID_CHUNK_ROWS", 500)
    assert bounds() == expected
    monkeypatch.setattr(malice.oracle, "_seeds", lambda *args: None)
    assert bounds() == expected
    assert all(sum(_pinned_counts(inst, alpha, n)) < GridSpec(n).points(inst.m) - 1 for inst, alpha, n in cases)


def _kept_rows(monkeypatch):
    """The rows of each _seed_replies call of the lower bound after its
    seeds': the grid points it evaluates beyond them, per chunk."""
    calls = []

    def counted(inst, alpha, beta, rows, n):
        calls.append(len(rows))
        return _seed_replies(inst, alpha, beta, rows, n)

    monkeypatch.setattr(malice.oracle, "_seed_replies", counted)
    return calls


def test_a_pinned_face_water_fills_one_row(monkeypatch):
    calls = _kept_rows(monkeypatch)
    inst, alpha = PINNED_FACES[0]
    expected = reference_mal_soc_value(inst, alpha, 100)
    seeds = _seeds(inst, alpha, 100)
    assert mal_soc_value(inst, alpha, GridSpec(100)) == expected
    # a seed is on the face, so no other pinned point is water-filled
    assert calls == [len(seeds)]
    # the planes keep 4,186 of the 5,151 points, all on the face, three of them seeds
    calls.clear()
    with monkeypatch.context() as patch:
        patch.setattr(malice.oracle, "_pin_floor", lambda inst: None)
        assert mal_soc_value(inst, alpha, GridSpec(100)) == expected
    assert calls == [len(seeds), 4183]
    # the floor is 4 (m + 2) epsilons above c, exclusive, on every shifted
    # intercept: b = floor leaves the face x_0 = 0 unpinned, its successor not
    c = 1.0
    floor = c * (1.0 + 4 * (3 + 2) * sys.float_info.epsilon)
    for b, face in ((floor, False), (math.nextafter(floor, math.inf), True)):
        inst = validate([(1, b), (0, c), (3, 0.5)])
        assert malice.oracle._pin_floor(inst) == floor and not malice.oracle._plateau(inst)
        expected = reference_mal_soc_value(inst, 0.5, 100)
        calls.clear()
        assert mal_soc_value(inst, 0.5, GridSpec(100)) == expected
        assert (sum(calls[1:]) <= 1) is face, (b, calls)
    # without seeds every point is evaluated: a chunk water-fills its rows
    # off the face and the first one on it
    rows = []  # of each waterfill_rows call

    def batched(slopes, intercepts, mass):
        rows.append(len(intercepts))
        return waterfill_rows(slopes, intercepts, mass)

    monkeypatch.setattr(malice.oracle, "waterfill_rows", batched)
    monkeypatch.setattr(malice.oracle, "_seeds", lambda *args: None)
    monkeypatch.setattr(malice.oracle, "GRID_CHUNK_ROWS", 1000)
    for inst, alpha in PINNED_FACES:
        n = 100 if inst.m < 4 else 20
        rows.clear()
        assert mal_soc_value(inst, alpha, GridSpec(n)) == reference_mal_soc_value(inst, alpha, n)
        assert rows == _pinned_counts(inst, alpha, n), inst


def test_near_ties_of_a_pinned_face_take_the_full_path(monkeypatch):
    # where the positive-slope link (a, b) is lifted above c, a link within
    # delta above c and too flat to lift the level strands SOC's mass at
    # some points and not at others, so no point is pinned and each reply is
    # checked.  With delta = 0 the first of those points would stand for the
    # rest, and the bound would be a float, not this InvalidMass.
    monkeypatch.setattr(malice.oracle, "_seeds", lambda *args: None)
    near = [
        ([(2.0950532778719424, 0.6389194565074312), (0, 0.8348771507992095),
          (3.782605590870151e-16, 0.8348771507992097)], 0.999),
        ([(0.7149915959455384, 0.6507947407850923), (0, 0.8348771507992095),
          (1.4751022917870719e-16, 0.8348771507992097)], 0.99),
        ([(2.7833925447841414, 2.741141613084802), (0, 3.8116551675025145),
          (9.130707190207755e-15, 3.811655167502515)], 0.99),
    ]
    for links, alpha in near:
        inst = validate(links)
        assert not malice.oracle._plateau(inst)
        with pytest.raises(InvalidMass, match=f"^flow entries sum to 0.0, declared mass {1.0 - alpha}$"):
            mal_soc_value(inst, alpha, GridSpec(10))
        assert _outcome(mal_soc_value, inst, alpha, GridSpec(10)) == _outcome(_every_point, inst, alpha, GridSpec(10))


def test_a_pinned_face_raises_the_full_paths_mass_error(monkeypatch):
    # with no mass tolerance the face's reply, beta split over three tied
    # zero-slope links, misses beta by an ulp, and its total is the first of
    # the largest misses: the bound raises the InvalidMass, with the message,
    # that evaluating every row raises, however the face is chunked
    monkeypatch.setattr(malice.model, "MASS_TOL", 0.0)
    monkeypatch.setattr(malice.oracle, "_seeds", lambda *args: None)
    inst, alpha = validate([(0, 1.0), (0, 1.0), (0, 1.0), (8, 0.9), (1, 2.0)]), 0.14
    beta = 1.0 - alpha
    _, y = waterfill(inst.doubled_slopes, [1.0, 1.0, 1.0, 8 * alpha + 0.9, 2.0], beta)  # a point on the face
    assert sorted(y) == [0, 1, 2]
    face = y[0] + y[1] + y[2]
    assert face != beta
    for rows in (GRID_CHUNK_ROWS, 50, 7):
        monkeypatch.setattr(malice.oracle, "GRID_CHUNK_ROWS", rows)
        outcome = _outcome(mal_soc_value, inst, alpha, GridSpec(6))
        assert outcome == (InvalidMass, f"flow entries sum to {face}, declared mass {beta}"), rows
        assert outcome == _outcome(_every_point, inst, alpha, GridSpec(6)), rows


def test_a_nan_row_hides_neither_bound():
    # replies, and SOC strategies under attack, that leave the huge link
    # empty, which 0 * inf would make NaN; every bound is still the
    # reference's float, with no RuntimeWarning
    cases = [(validate([(0, 1), (1.5e308, 1.5e308)]), alpha, n)
             for alpha in (0.0, 0.3, 0.5, 0.9, 1.0) for n in (1, 2, 10, 30, 100)]
    # seeds beside two huge links: each seed's value is finite, 0.3 for the
    # lower bound, as neither bound charges a link that SOC leaves empty
    cases += [(validate([(9e307, 1.7e308), (0, 1), (3e307, 1.6)]), 0.7, n) for n in (5, 10)]
    # MAL's level pinned at the largest float: the huge link's shifted
    # intercept a x + b overflows, so its first table entry is 0 * inf = NaN
    # and the others inf, which the upper bound makes NaN, keeping every point
    biggest = sys.float_info.max
    shifted = [([(1.4076731918322421e308, 7.138040301878989e307), (0, biggest)], 0.99),
               ([(1.4412783513367957e308, 5.095178621538454e307), (0, biggest)], 0.9),
               ([(1.188833780299879e308, 1.1872980413002903e308), (0, biggest)], 0.9)]
    overflowed = [(validate(links), alpha, n) for links, alpha in shifted for n in (3, 10, 30)]
    # an overflowed term bounds nothing, so neither grid has seeds: the
    # huge link's s overflows, and a v + s in the larger terms of the last
    # case's first link, with s finite
    for inst, alpha, n in overflowed + cases[-2:]:
        assert _bowl(inst, alpha, n) is None, (inst, alpha, n)
    for inst, alpha, n in cases + overflowed:
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


def _point_and_moves(loads, n):
    """n times a flow's loads rounded down and then up on the links of the
    largest remainders, the first on ties, then that point's one-unit
    moves to the cyclically next and previous link."""
    m = len(loads)
    total = 0.0
    for load in loads:
        total += load
    target = [load * (n / total) for load in loads]
    parts = [math.floor(share) for share in target]
    for k in sorted(range(m), key=lambda k: (parts[k] - target[k], k))[:n - sum(parts)]:
        parts[k] += 1
    moves = []
    for i in range(m):
        if parts[i]:
            for j in sorted({(i + 1) % m, (i - 1) % m}):
                move = list(parts)
                move[i] -= 1
                move[j] += 1
                moves.append(move)
    return [parts, *moves]


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
        x = wardrop_flow(inst, alpha)[0]
        # the lower bound's round MAL's selfish flow, the upper bound's SOC's reply to it
        lower = _seeds(inst, alpha, n)
        bowl = _bowl(inst, alpha, n)
        count = 1 + (2 * m if m > 2 else m * (m - 1))
        if count >= GridSpec(n).points(m):
            assert lower is None and bowl is None, (inst, alpha, n)
            continue
        if alpha == 1.0:  # SOC has no mass to round
            assert bowl is None
        else:
            reply = induced_optimum(inst, x, 1.0 - alpha)[0]
            assert bowl[0] == _point_and_moves(reply.values, n), (inst, alpha, n)
        for rows in (lower, *([] if bowl is None else [bowl[0]])):
            assert len({tuple(row) for row in rows}) == len(rows)
            assert all(sum(row) == n and min(row) >= 0 for row in rows)
            assert len(rows) <= count
        assert lower == _point_and_moves(x.values, n), (inst, alpha, n)
        full += len(lower) == count
    assert full > 10  # every link loaded: 2m + 1 rows, or m(m - 1) + 1 on two links
    # none at alpha = 0, as many as the grid's points, above the budget, or
    # on a flow that is empty or infinite
    inst = random_instance(seed=90, m=22)
    assert len(_seeds(inst, 0.5, 3)) > 1
    assert _seeds(inst, 0.0, 3) is None
    assert _seeds(random_instance(seed=90, m=23), 0.5, 3) is None
    three = random_instance(seed=91, m=3)
    assert _seeds(three, 0.5, 2) is None and len(_seeds(three, 0.5, 3)) > 1
    for links in ([(1e-17, 1.0), (1e-17, 1.0), (2e-17, 1.0)], [(1e-300, 1e308), (1e-300, 1.5e308), (2.0, 1.6e308)]):
        assert _seeds(validate(links), 0.5, 10) is None
    # a subnormal alpha, whose flow's sum is so small that n over it overflows,
    # once raised OverflowError or ValueError from math.floor
    for seed in (2, 3):
        assert _seeds(random_instance(seed=seed, m=3), 5e-324, 20) is None
    # the walk reads no tables, so two links at resolution 2**20, a line of
    # over a million points, have seeds in both bounds
    two = random_instance(seed=92, m=2)
    assert min(two.slopes) > 0.0
    assert _bowl(two, 0.5, 2**20) is not None and _seeds(two, 0.5, 2**20) is not None


def _seed_outcome(replies, inst, alpha, n, seeds):
    """replies' values and plane rows for the seeds as hex floats, or its
    InvalidMass as (class, message)."""
    try:
        values, planes = replies(inst, alpha, 1.0 - alpha, seeds, n)
    except InvalidMass as exc:
        return InvalidMass, str(exc)
    return [float(v).hex() for v in values], [[float(p).hex() for p in row] for row in planes]


def _batched_seed_replies(inst, alpha, beta, seeds, n):
    """The seeds' values and planes from _replies, the grid chunks' path."""
    a, b = np.array(inst.slopes), np.array(inst.intercepts)
    with np.errstate(all="ignore"):  # as inside the bound
        values, y = _replies(a, b, 2.0 * a, alpha, beta, np.array(seeds) / n, None)
        return values, alpha * (a * y) + _link_sum(y * (a * y + b))[:, None]


def _seed_cases():
    """(inst, alpha, n) on which the seeds' scalar paths meet the batched ones."""
    alphas = (0.1, 0.3, 0.5, 0.7, 0.9)
    cases = [(inst, alpha, n) for inst, alpha in oracle_ensemble(40) for n in (10, 100)]
    wide = [inst for inst in wide_ensemble(60, seed=11) if inst.m <= 5]
    cases += [(inst, alphas[k % 5], (3, 12)[k % 2]) for k, inst in enumerate(wide)]
    # near ties of a zero-slope link, some of which strand SOC's mass
    c = 2.0
    near = [validate([(0, 1.0), (1e-15, 1.0)]),
            validate([(0, 0.8348771507992095), (2.6836288719318065e-16, 0.8348771507992097)]),
            validate([(0, 3.8116551675025145), (1.6391077765223682e-15, 3.8116551675025154),
                      (3.765859942429265e-14, 3.8116551675025154)]),
            validate([(0, c), (1, c), (0.5, 3.0)]),
            validate([(0, c), (1, math.nextafter(c, math.inf)), (0.5, 3.0)]),
            validate([(0, c), (1, c * (1.0 + 8 * sys.float_info.epsilon)), (0.5, 3.0)]),
            validate([(0, 1.0), (1.5e308, 1.5e308)])]
    cases += [(inst, alpha, n) for inst in near for alpha in (0.4, 0.99, 0.999) for n in (10, 30)]
    # all-huge links, whose costs and masses overflow
    rng = random.Random(43)
    for _ in range(300):
        inst = validate([(rng.uniform(1e307, 1.7e308), rng.uniform(1e307, 1.7e308))
                         for _ in range(rng.choice([2, 3]))])
        cases.append((inst, rng.choice([0.3, 0.5, 0.9, rng.random()]), rng.choice([3, 5, 10])))
    return cases


def _seed_rows(inst, alpha, n):
    """(rows, n): MAL's seeds, and the points of a coarse grid, together and
    one by one, whose rows reach the huge links that the seeds avoid."""
    grid = [list(p) for p in simplex_grid(3, inst.m)]
    rows = [(grid, 3), *(([row], 3) for row in grid)]
    seeds = _seeds(inst, alpha, n)
    return rows if seeds is None else [(seeds, n), *rows]


def test_the_seeds_scalar_replies_are_the_batched_ones():
    outcomes = Counter()
    for inst, alpha, n in _seed_cases():
        for rows, n in _seed_rows(inst, alpha, n):
            scalar = _seed_outcome(_seed_replies, inst, alpha, n, rows)
            assert scalar == _seed_outcome(_batched_seed_replies, inst, alpha, n, rows), (inst, alpha, n, rows)
            if scalar[0] is InvalidMass:
                outcomes["nan total" if "sum to nan" in scalar[1] else InvalidMass] += 1
            else:
                outcomes["inf value" if "inf" in scalar[0] else "value"] += 1
    assert outcomes["value"] > 1000 and outcomes[InvalidMass] > 30, outcomes
    assert outcomes["nan total"] > 100 and outcomes["inf value"] > 3, outcomes


def _attack_ties():
    """(inst, alpha, rows, n): rows whose a_k y_k tie exactly at their
    maximum, rows of zeros, and rows whose only load is on one link."""
    ties = validate([(2, 0.1), (1, 0.7), (2, 0.3)])  # y_0 = y_2 ties links 0 and 2
    doubled = validate([(2, 1.0), (1, 0.0)])  # 2 y_0 = y_1 where p_1 = 2 p_0
    flat = validate([(0, 1.0), (3, 0.5), (1, 2.0)])  # a zero slope ties at 0 with every empty link
    rows = [
        (ties, [[2, 0, 2], [1, 2, 1], [3, 1, 3], [1, 0, 1], [0, 4, 0], [4, 0, 0], [0, 0, 4], [0, 0, 0]], 4),
        (ties, [[2, 4, 2], [1, 2, 1], [3, 0, 3], [0, 6, 0]], 6),
        (doubled, [[1, 2], [2, 4], [3, 0], [0, 3], [0, 0]], 3),
        (flat, [[4, 0, 0], [0, 4, 0], [0, 0, 4], [2, 0, 2], [0, 0, 0]], 4),
    ]
    return [(inst, alpha, parts, n) for inst, parts, n in rows for alpha in (0.0, 0.1, 0.25, 1 / 3, 0.5, 0.9, 1.0)]


def test_the_seeds_scalar_attacks_are_the_batched_ones():
    # the upper bound's seeds score in Python what _attacks scores in numpy
    outcomes = Counter()
    cases = []
    for inst, alpha, n in _seed_cases():
        with np.errstate(over="ignore", invalid="ignore"):
            bowl = _bowl(inst, alpha, n)
        rows = _seed_rows(inst, alpha, n) + ([] if bowl is None else [(bowl[0], n)])
        cases += [(inst, alpha, rows, n) for rows, n in rows]
    for inst, alpha, rows, n in cases + _attack_ties():
        a, b = np.array(inst.slopes), np.array(inst.intercepts)
        scalar = [value.hex() for value in _seed_attacks(inst, alpha, rows, n)]
        with np.errstate(over="ignore", invalid="ignore"):
            batched = [float(value).hex() for value in _attacks(a, b, alpha, np.array(rows) / n)]
        assert scalar == batched, (inst, alpha, n, rows)
        outcomes.update("inf" if "inf" in value else "value" for value in scalar)
    assert outcomes["value"] > 5000 and outcomes["inf"] > 1000, outcomes
    # on ties, the first maximal link is attacked, as mal_best_response
    # attacks it: the last one gives another float, as on ties' row
    # [2, 0, 2] at alpha 0.25 and 0.5, and doubled's [1, 2] at 0.1
    for inst, alpha, rows, n in _attack_ties():
        batched = _attacks(np.array(inst.slopes), np.array(inst.intercepts), alpha, np.array(rows) / n)
        for parts, value in zip(rows, batched.tolist()):
            if sum(parts) == n or alpha == 1.0:  # y is a flow of mass 1 - alpha
                y = [(1.0 - alpha) * (p / n) for p in parts]
                expected = mal_best_response(inst, Flow(y, 1.0 - alpha), alpha).value
                assert value.hex() == expected.hex(), (inst, alpha, parts, n)


def test_the_worst_mass_miss_is_the_one_argmax_picks():
    nan, inf = math.nan, math.inf
    # the first NaN, else the first of the largest misses
    assert math.isnan(_worst([0.75, nan, 1.0], 0.5))
    assert math.isnan(_worst([nan, 1.0, inf], 0.5))
    assert math.isnan(_worst([inf, 0.5, nan], 0.5))
    assert _worst([0.25, 0.75], 0.5) == 0.25 and _worst([0.75, 0.25], 0.5) == 0.75
    assert _worst([0.5, 0.75, 0.25, 1.0, 0.0], 0.5) == 1.0
    assert _worst([0.5, inf, 0.0], 0.5) == inf
    assert _worst([0.5], 0.5) == 0.5
    # as argmax picks it over random totals with NaNs, infinities and ties
    rng = random.Random(45)
    for _ in range(2000):
        beta = rng.choice([0.25, 0.5, 1.0 - rng.random()])
        pool = [nan, inf, 0.0, beta, 2 * beta, beta + 0.125, beta - 0.125, beta + 0.25, beta - 0.25]
        totals = [rng.choice(pool) for _ in range(rng.randint(1, 7))]
        picked = totals[np.argmax(np.abs(np.array(totals) - beta))]
        assert _worst(totals, beta).hex() == picked.hex(), (totals, beta)


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
        (random_instance(seed=48, m=3), 0.4, 100),         # three chunks, pruned to a few rows
        (random_instance(seed=2, m=3), 5e-324, 20),        # a subnormal alpha
    ]
    # plateaus, and zero-slope ties that pin SOC's level, MAL's or both
    cases += [(inst, 0.35, 20) for inst in PLATEAUS]
    ties = [validate([(0, 1), (0, 1), (3, 0.2)]), validate([(0, 2), (1, 0.5), (0, 2), (4, 0)])]
    cases += [(inst, alpha, 12) for inst in ties for alpha in (0.1, 0.5, 0.9)]
    # alpha = 0, where the bowl is f itself, and alpha = 1, where SOC has no mass
    cases += [(inst, alpha, 30) for inst in (random_instance(seed=49, m=3), PLATEAUS[0]) for alpha in (0.0, 1.0)]
    expected = [reference_soc_mal_value(inst, alpha, n) for inst, alpha, n in cases]
    assert [soc_mal_value(inst, alpha, GridSpec(n)) for inst, alpha, n in cases] == expected
    # one point per chunk: a single row is contiguous in either layout
    monkeypatch.setattr(malice.oracle, "GRID_CHUNK_ROWS", 1)
    assert [soc_mal_value(inst, alpha, GridSpec(n)) for inst, alpha, n in cases] == expected


def _every_attack(inst, alpha, n):
    """The upper bound over every grid point, through its one evaluation path."""
    a, b = np.array(inst.slopes), np.array(inst.intercepts)
    with np.errstate(all="ignore"):
        return min(float(_attacks(a, b, alpha, unit).min()) for _, unit in _unit_chunks(n, inst.m))


def _walked_rows(monkeypatch):
    """Per call of the upper bound, the grid points its walk keeps: the
    rows it scores, slice by slice."""
    calls = []

    def counted(*args):
        calls.append(0)
        for prefix, r, low, high in _bowl_slices(*args):
            calls[-1] += max(high - low + 1, 0)
            yield prefix, r, low, high

    monkeypatch.setattr(malice.oracle, "_bowl_slices", counted)
    return calls


def test_the_upper_bound_evaluates_few_points_beyond_its_seeds(monkeypatch):
    rng = random.Random(50)
    cases = [(random_instance(seed=900 + k, m=3), rng.uniform(0.05, 0.95)) for k in range(40)]
    expected = [_every_attack(inst, alpha, 100) for inst, alpha in cases]
    rows = _walked_rows(monkeypatch)
    calls = count_calls(monkeypatch, _grid_chunks)
    for (inst, alpha), value in zip(cases, expected):
        assert soc_mal_value(inst, alpha, GridSpec(100)) == value, (inst, alpha)
    # of 5,151 points, with no pass over the grid; every point is evaluated
    # where there are no seeds, as at alpha = 1
    assert len(rows) == len(cases) and statistics.median(rows) <= 30 and calls["_grid_chunks"] == 0, rows
    soc_mal_value(cases[0][0], 1.0, GridSpec(100))
    assert len(rows) == len(cases) and calls["_grid_chunks"] == 1


def _bowl_value(inst, alpha, parts, n):
    """A point's bowl as the walk's leaf sums it: T_k at its parts, from
    MAL's selfish flow, in index order."""
    a, b = inst.slopes, inst.intercepts
    x = malice.oracle._selfish(inst, alpha)
    total = 0.0
    for k, p in enumerate(parts):
        v = (1.0 - alpha) * (p / n)
        total += (a[k] * v + (a[k] * x[k] + b[k])) * v
    return total


def test_the_bowl_drops_only_points_provably_above_the_limit(monkeypatch):
    # terms 0, 1, 2 and 0, 0.5, 1 on two links at resolution 2: bowls 1.0,
    # 1.5 and 2.0 at (0, 2), (1, 1) and (2, 0); against a limit of 1.5 the
    # one equal to it keeps its point and only the last is dropped
    slices = list(_bowl_slices((0.0, 0.0), (2.0, 1.0), 1.0, 2, 1.0, 1.0, 1.5))
    assert [(low, high) for _, _, low, high in slices] == [(0, 1)]
    assert [(low, high) for _, _, low, high in _bowl_slices((0.0, 0.0), (2.0, 1.0), 1.0, 2, 1.0, 1.0, 0.5)] == [(0, -1)]
    # a point never drops against its own value as best: the margin covers
    # the bowl's rounding above the value, which does happen
    cases = [(inst, alpha, 20) for inst, alpha in oracle_ensemble(30)]
    cases += [(random_instance(seed=60 + m, m=m), 0.45, 8) for m in (4, 5, 6)]
    cases += [(inst, 0.3 + 0.1 * (k % 5), 10) for k, inst in enumerate(wide_ensemble(20, seed=13)) if inst.m <= 5]
    cases += [(validate([(1, 0)] * 3), 0.5, 20), (validate([(0, 1), (0, 1), (3, 0.2)]), 0.4, 20)]
    above = 0
    for inst, alpha, n in cases:
        points = list(simplex_grid(n, inst.m))
        values = _seed_attacks(inst, alpha, points, n)
        for parts, value in zip(points, values):
            if _bowl_value(inst, alpha, parts, n) > value:
                above += 1
                with monkeypatch.context() as patch:
                    patch.setattr(malice.oracle, "_seed_attacks", lambda *args, value=value: [value])
                    _, best, slices = _bowl(inst, alpha, n)
                    kept = {(*prefix, j, r - j) for prefix, r, low, high in slices for j in range(low, high + 1)}
                assert best == value and parts in kept, (inst, alpha, n, parts)
    assert above > 20


def test_the_planes_drop_only_points_provably_below_the_floor():
    # one plane, 1 and 0, on two links at resolution 2: values 0, 0.5 and 1
    # at (0, 2), (1, 1) and (2, 0); against a floor of 0.5 the one equal to
    # it keeps its point and only the first is dropped, as is a seed
    assert _plane_points(2, 2, [[1.0, 0.0]], 0.5, None, False, set()) == [(1, [1, 1]), (2, [2, 0])]
    assert _plane_points(2, 2, [[1.0, 0.0]], 0.5, None, False, {(2, 0)}) == [(1, [1, 1])]
    # on three links the prefix's bound, the rest at its largest coefficient,
    # keeps (1, 0, 1) and (1, 1, 0) at a floor of 0.5, and (2, 0, 0) at 1
    planes = [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]
    assert [parts for _, parts in _plane_points(3, 2, planes, 0.5, None, False, set())] == [[1, 0, 1], [1, 1, 0]]
    assert _plane_points(3, 2, [[1.0, 0.0, 0.0]], 1.0, None, False, set()) == [(5, [2, 0, 0])]
    # a floor equal to the plane at (8, 2), whose closed-form threshold
    # rounds to 7.999999999999999: the part of room keeps the point
    p, q = 0.11791870367106105, 0.7609624449125756
    floor = p * (8 / 10) + q * (2 / 10)
    assert (floor - q) / (p - q) * 10 < 8
    assert [rank for rank, _ in _plane_points(2, 10, [[p, q]], floor, None, False, set())] == list(range(9))


def test_the_walks_edge_cases_give_the_reference_bounds_bit_for_bit(monkeypatch):
    walked = _walked_rows(monkeypatch)
    cases = [
        # flat bowls: zero-slope ties keep every one of 1,891 points
        (validate([(0, 1)] * 3), 0.5, 60),
        (validate([(0, 1), (0, 1), (1e-12, 1)]), 0.4, 60),
        # exact ties, of bowls and of damage, at the ends of a slice's run
        (validate([(1, 0)] * 3), 0.5, 30),
        (validate([(1, 0)] * 4), 0.3, 12),
        (validate([(2, 0.1), (1, 0.7), (2, 0.3)]), 0.5, 40),
        (validate([(2, 1), (2, 1), (1, 1.5)]), 0.25, 40),
        # subnormal alphas, and the largest alpha below 1, whose SOC mass is 2**-53
        (random_instance(seed=5, m=3), 5e-324, 30),
        (random_instance(seed=6, m=3), 1e-310, 30),
        (random_instance(seed=7, m=3), 1.0 - 2.0**-53, 30),
        # 4 to 6 links
        (random_instance(seed=8, m=4), 0.6, 20),
        (random_instance(seed=9, m=5), 0.3, 12),
        (random_instance(seed=10, m=6), 0.8, 10),
    ]
    for inst, alpha, n in cases:
        upper, lower = reference_soc_mal_value(inst, alpha, n), reference_mal_soc_value(inst, alpha, n)
        assert soc_mal_value(inst, alpha, GridSpec(n)).hex() == upper.hex(), (inst, alpha, n)
        assert mal_soc_value(inst, alpha, GridSpec(n)).hex() == lower.hex(), (inst, alpha, n)
    assert walked[0] == GridSpec(60).points(3) > 1_000 and walked[1] > 100, walked
    # 4 to 6 links at resolutions up to 100, against every point through the dense path
    for m, n in ((4, 100), (4, 60), (5, 30), (6, 20)):
        inst = random_instance(seed=20 + m, m=m)
        assert soc_mal_value(inst, 0.45, GridSpec(n)) == _every_attack(inst, 0.45, n), (m, n)
        if n < 100:
            assert mal_soc_value(inst, 0.45, GridSpec(n)) == _every_point(inst, 0.45, GridSpec(n)), (m, n)
    # a pinned face across both chunks of 8,646 points, 3 links at resolution
    # 130: with seeds at a vertex no seed is on the face, so the face's first
    # kept point in each chunk is water-filled
    inst, alpha = PINNED_FACES[0]
    expected = reference_mal_soc_value(inst, alpha, 130)
    assert GridSpec(130).points(3) == 8_646 > GRID_CHUNK_ROWS
    chunks = []  # the rows of each _seed_replies call

    def recorded(inst, alpha, beta, rows, n):
        chunks.append(rows)
        return _seed_replies(inst, alpha, beta, rows, n)

    monkeypatch.setattr(malice.oracle, "_seed_replies", recorded)
    monkeypatch.setattr(malice.oracle, "_seeds", _vertex_seeds)
    assert mal_soc_value(inst, alpha, GridSpec(130)) == expected
    face = malice.oracle._face(inst, alpha, 130, malice.oracle._pin_floor(inst))
    pinned = [sum(all(p >= q for p, q in zip(row, face)) for row in rows) for rows in chunks]
    assert pinned == [0, 1, 1], pinned  # the seeds, then each chunk's first pinned point


def test_both_bounds_ignore_every_floating_point_class():
    # a caller's errstate reaches neither bound: on all-huge links, whose
    # replies underflow, overflow and make NaN, each bound gives the same
    # floats and errors as under numpy's default state
    rng = random.Random(47)
    outcomes = Counter()
    for _ in range(200):
        inst = validate([(rng.uniform(1e307, 1.7e308), rng.uniform(1e307, 1.7e308))
                         for _ in range(rng.choice([2, 3]))])
        alpha = rng.choice([0.0, 0.3, 0.5, 0.9, 1.0, rng.random()])
        grid = GridSpec(rng.choice([1, 2, 3, 5, 10]))
        for bound in (mal_soc_value, soc_mal_value):
            default = _outcome(bound, inst, alpha, grid)
            with np.errstate(all="raise"):
                assert _outcome(bound, inst, alpha, grid) == default, (bound, inst, alpha, grid)
            outcomes[bound.__name__, isinstance(default, str)] += 1
    assert outcomes["mal_soc_value", False] > 20 and outcomes["mal_soc_value", True] > 20, outcomes
    assert outcomes["soc_mal_value", True] == 200, outcomes


def test_mal_soc_value_runs_the_scalar_kernel_only_on_its_seeds(monkeypatch):
    # MAL's selfish flow and one reply per seed, not one per grid point
    inst = random_instance(seed=34, m=3)
    seeds = _seeds(inst, 0.5, 30)
    calls = count_calls(monkeypatch, malice.flows.waterfill)
    mal_soc_value(inst, 0.5, GridSpec(30))
    assert 0 < calls["waterfill"] <= 1 + len(seeds) < GridSpec(30).points(3)


def test_the_scalar_replies_walk_the_instance_order_of_their_intercepts(monkeypatch):
    # SOC's scalar replies to shifted intercepts, the upper bound's and the
    # lower bound's seeds', pass no order: the kernel sorts plain lists, with
    # the element sequence of the read-only order an instance of the same
    # coefficients keeps, and of a sort by (intercept, index)
    built = []

    def recorded(slopes, intercepts):
        order = intercept_order(slopes, intercepts)
        built.append((list(slopes), list(intercepts), order))
        return order

    monkeypatch.setattr(malice.flows, "intercept_order", recorded)
    cases = [(inst, alpha, 30) for inst, alpha in oracle_ensemble(20)]
    cases += [(inst, alpha, 12) for inst, alpha in PINNED_FACES]
    cases += [(validate([(0, 1), (0, 1), (3, 0.2)]), 0.5, 12), (validate([(1, 0)] * 3), 0.5, 10)]
    for inst, alpha, n in cases:
        minimax_gap(inst, alpha, GridSpec(n))
    assert len(built) > 2 * len(cases)
    for slopes, intercepts, (positive, flat) in built:
        assert type(positive) is list and type(flat) is list
        kept = validate(list(zip(slopes, intercepts))).order
        assert positive == list(kept[0]) and flat == list(kept[1]), (slopes, intercepts)
        ranked = sorted(range(len(slopes)), key=lambda i: (intercepts[i], i))
        assert positive == [i for i in ranked if slopes[i] > 0.0] and flat == [i for i in ranked if slopes[i] == 0.0]


# input 15,307 of the oracle workload's seed 63: a slope of 1.9e-8 gives the
# water-fill D0's large condition number, so bench/run.py reports the
# workload incorrect on that seed whenever a run gets that far
D0_ORACLE_INPUT = ([(1.9028794095987678e-08, 8.173595409832696), (4.904631393907771, 9.867588968386514),
                    (7.300056569377668, 1.6291908307687097)], float.fromhex("0x1.280947abfcac7p-2"))


@pytest.mark.xfail(strict=True, raises=InvalidMass, reason="D0: the solver rejects its own loads")
@pytest.mark.parametrize("bound", [lambda inst, alpha: pure_equilibrium(inst, alpha)[1].value,
                                   lambda inst, alpha: mal_soc_value(inst, alpha, GridSpec(100))],
                         ids=["pure_equilibrium", "mal_soc_value"])
def test_the_oracle_workloads_d0_input(bound):
    links, alpha = D0_ORACLE_INPUT
    inst = validate(links)
    assert bound(inst, alpha) <= soc_mal_value(inst, alpha, GridSpec(100)) + 1e-9


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
