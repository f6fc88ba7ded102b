import copy
import math
import pickle
import random
import re

import numpy as np
import pytest

from malice import (
    Flow,
    InvalidFlow,
    InvalidMass,
    ValidationError,
    com_report,
    com_sweep,
    cost,
    flow_cost,
    induced_optimum,
    mal_best_response,
    pigou,
    pure_equilibrium,
    random_instance,
    scale_strategy,
    system_optimum,
    tight,
    validate,
    wardrop_flow,
    waterfill,
    waterfill_rows,
)
from malice.model import solver_flow

from _support import (
    BASE_SEED,
    bisect_waterfill,
    bits,
    dense,
    dense_induced_optimum,
    dense_waterfill,
    grid_best_soc_value,
    random_feasible,
    random_sparse_flow,
    reference_cost,
    sorting_waterfill,
    standard_ensemble,
    wide_ensemble,
)


def test_wardrop_pigou():
    flow, level = wardrop_flow(pigou(), 1.0)
    assert flow.values == (0.0, 1.0)
    assert level.level == 1.0
    assert level.support == frozenset({1})


def test_wardrop_zero_mass():
    inst = validate([(2, 3), (1, 5)])
    flow, level = wardrop_flow(inst, 0.0)
    assert flow.values == (0.0, 0.0)
    assert level.level == 3.0
    assert level.support == frozenset()


def test_wardrop_tight():
    inst = tight(10)
    flow, level = wardrop_flow(inst, 0.5)
    assert flow.values == pytest.approx((0.4, 0.1), abs=1e-15)
    assert level.level == 1.0
    ref_level, ref_values = bisect_waterfill(inst.slopes, inst.intercepts, 0.5)
    assert level.level == pytest.approx(ref_level, abs=1e-12)
    assert flow.values == pytest.approx(ref_values, abs=1e-9)


def test_wardrop_invalid_mass():
    with pytest.raises(InvalidMass):
        wardrop_flow(pigou(), -0.1)
    with pytest.raises(InvalidMass):
        wardrop_flow(pigou(), math.nan)


def test_wardrop_zero_slope_tie_split():
    inst = validate([(0, 1), (0, 1), (2, 0)])
    flow, level = wardrop_flow(inst, 1.0)
    assert level.level == 1.0
    assert flow.values == (0.25, 0.25, 0.5)


def test_optimum_pigou():
    inst = pigou()
    flow, _ = system_optimum(inst, 1.0)
    assert flow.values == (0.5, 0.5)
    value = flow_cost(inst, flow)
    assert value == 0.75
    # dense sweep over the one-dimensional split agrees
    grid = grid_best_soc_value(inst.links, (0.0, 0.0), 1.0)
    assert value <= grid + 1e-12
    assert value == pytest.approx(grid, abs=1e-6)


def test_optimum_tight_split():
    M = 10.0
    inst = tight(M)
    flow, _ = system_optimum(inst, 1.0)
    assert flow.values == pytest.approx(((2 * M - 1) / (2 * M), 1 / (2 * M)), abs=1e-15)
    assert flow_cost(inst, flow) == pytest.approx((4 * M - 1) / (4 * M), abs=1e-15)


def test_optimum_single_link():
    inst = validate([(3, 2)])
    flow, _ = system_optimum(inst, 0.7)
    assert flow.values == (0.7,)


def test_induced_zero_shift_matches_optimum():
    rng = random.Random(BASE_SEED + 3)
    cases = [(random_instance(seed=2000 + k, m=rng.randint(1, 6)), rng.uniform(0, 1)) for k in range(30)]
    # a -0.0 intercept is stored as +0.0, so the level pinned at it is +0.0 both ways
    cases.append((validate([(0.0, -0.0), (1.0, 5.0)]), 0.5))
    for inst, beta in cases:
        direct, level = system_optimum(inst, beta)
        shifted, shifted_level = induced_optimum(inst, Flow((0.0,) * inst.m, 0.0), beta)
        assert bits((shifted.values, shifted_level.level)) == bits((direct.values, level.level)), inst


def test_induced_tight():
    inst = tight(10)
    flow, _ = induced_optimum(inst, Flow((0.4, 0.1), 0.5), 0.5)
    assert flow.values == (0.5, 0.0)


def test_induced_pigou():
    inst = pigou()
    x = (0.0, 0.5)
    flow, _ = induced_optimum(inst, Flow(x, 0.5), 0.5)
    assert flow.values == (0.25, 0.25)
    value = cost(inst, Flow(x, 0.5), flow)
    grid = grid_best_soc_value(inst.links, x, 0.5)
    assert value <= grid + 1e-12
    assert value == pytest.approx(grid, abs=1e-6)


def test_flow_cost_examples():
    inst = pigou()
    assert flow_cost(inst, wardrop_flow(inst, 1.0)[0]) == 1.0
    assert flow_cost(inst, system_optimum(inst, 1.0)[0]) == 0.75
    assert flow_cost(inst, Flow((0.0, 0.0), 0.0)) == 0.0


def test_feasibility_and_level_consistency():
    rng = random.Random(BASE_SEED + 4)
    for inst, _ in standard_ensemble(200):
        beta = rng.uniform(0, 1.5)
        for flow, level in (wardrop_flow(inst, beta), system_optimum(inst, beta)):
            assert all(v >= 0.0 for v in flow.values)
            assert abs(sum(flow.values) - beta) <= 1e-9 * max(1.0, beta)
        flow, level = wardrop_flow(inst, beta)
        for i, (a, b) in enumerate(inst.links):
            latency = a * flow.values[i] + b
            if flow.values[i] > 0.0:
                assert abs(latency - level.level) <= 1e-9 * max(1.0, abs(level.level))
            else:
                assert b >= level.level - 1e-9


def test_wardrop_variational_property():
    rng = random.Random(BASE_SEED + 5)
    rng_np = np.random.default_rng(BASE_SEED + 5)
    for inst, _ in standard_ensemble(100):
        beta = rng.uniform(0, 1)
        flow, _ = wardrop_flow(inst, beta)
        latencies = np.array([a * v + b for (a, b), v in zip(inst.links, flow.values)])
        f = np.array(flow.values)
        alternatives = random_feasible(rng_np, 50, inst.m, beta)
        slack = (latencies * (alternatives - f)).sum(axis=1)
        assert slack.min() >= -1e-7


def test_optimum_beats_random_flows():
    rng = random.Random(BASE_SEED + 6)
    rng_np = np.random.default_rng(BASE_SEED + 6)
    for inst, _ in standard_ensemble(50):
        beta = rng.uniform(0, 1)
        best = flow_cost(inst, system_optimum(inst, beta)[0])
        flows = random_feasible(rng_np, 1000, inst.m, beta)
        a = np.array(inst.slopes)
        b = np.array(inst.intercepts)
        costs = (flows * (flows * a + b)).sum(axis=1)
        assert best <= costs.min() + 1e-7


def test_bisection_oracle_agreement():
    rng = random.Random(BASE_SEED + 7)
    for inst, _ in standard_ensemble(100):
        for beta in (1.0, rng.uniform(0, 1)):
            got = flow_cost(inst, wardrop_flow(inst, beta)[0])
            _, ref = bisect_waterfill(inst.slopes, inst.intercepts, beta)
            assert got == pytest.approx(reference_cost(inst.links, ref), abs=1e-7)
            got = flow_cost(inst, system_optimum(inst, beta)[0])
            doubled = tuple(2.0 * a for a in inst.slopes)
            _, ref = bisect_waterfill(doubled, inst.intercepts, beta)
            assert got == pytest.approx(reference_cost(inst.links, ref), abs=1e-7)


def test_optimum_support_monotone_in_mass():
    for inst, _ in standard_ensemble(100):
        previous = frozenset()
        for step in range(1, 11):
            _, level = system_optimum(inst, step / 10)
            assert previous <= level.support
            previous = level.support


def test_unit_nash_cost_equals_level():
    for inst, _ in standard_ensemble(100):
        flow, level = wardrop_flow(inst, 1.0)
        assert flow_cost(inst, flow) == pytest.approx(level.level, abs=1e-9 * max(1.0, level.level))


def test_optimum_cost_scales_subadditively():
    # cost of a lam-mass optimum never exceeds lam times the unit optimum cost
    for inst, _ in standard_ensemble(60):
        unit = flow_cost(inst, system_optimum(inst, 1.0)[0])
        for lam in (0.1, 0.25, 0.5, 0.75, 0.9):
            part = flow_cost(inst, system_optimum(inst, lam)[0])
            assert part <= lam * unit + 1e-9


def _layouts(rows):
    """rows as C-ordered, Fortran-ordered and non-contiguous arrays."""
    c_order = np.array(rows, dtype=np.float64)
    spaced = np.zeros((2 * len(rows), 3 * len(rows[0])))
    spaced[::2, ::3] = c_order
    return {"C": c_order, "F": np.asfortranarray(c_order), "strided": spaced[::2, ::3]}


def _assert_rows_bitwise_equal_scalar(slopes, rows, mass):
    levels, loads = waterfill_rows(slopes, np.array(rows, dtype=np.float64), mass)
    assert loads.shape == (len(rows), len(slopes))
    for row, level, load in zip(rows, levels.tolist(), loads.tolist()):
        ref_level, ref_loads = dense_waterfill(slopes, row, mass)
        assert level.hex() == ref_level.hex(), (slopes, row, mass)
        assert [v.hex() for v in load] == [v.hex() for v in ref_loads], (slopes, row, mass)
    # any layout of the rows gives the same floats, and link-major loads
    expected = bits([dense_waterfill(slopes, row, mass) for row in rows])
    for layout, array in _layouts(rows).items():
        levels, loads = waterfill_rows(slopes, array, mass)
        assert loads.flags.f_contiguous, layout
        assert bits(list(zip(levels.tolist(), loads.tolist()))) == expected, (layout, slopes, rows, mass)


def test_waterfill_rows_bitwise_equal_to_scalar_on_ensemble():
    rng = random.Random(BASE_SEED + 11)
    for m in range(1, 7):
        for k in range(40):
            slopes = random_instance(seed=BASE_SEED + 100 * m + k, m=m).slopes
            rows = [list(random_instance(seed=BASE_SEED * 3 + 1000 * m + 40 * k + j, m=m).intercepts)
                    for j in range(6)]
            # intercepts from a small set, so that ties and equal levels occur
            rows += [[float(rng.randint(0, 2)) for _ in range(m)] for _ in range(6)]
            for mass in (0.0, 1e-9, rng.uniform(0.0, 1.0), 1.0, 50.0):
                _assert_rows_bitwise_equal_scalar(slopes, rows, mass)


def test_waterfill_rows_bitwise_equal_to_scalar_on_edge_cases():
    cases = [
        # zero-slope links tied at the pinned level share the rest equally
        ((0.0, 0.0, 2.0), [[1.0, 1.0, 0.0], [1.0, 2.0, 0.0], [3.0, 3.0, 0.0]], 1.0),
        # only zero-slope links: the level is the smallest of their intercepts
        ((0.0, 0.0), [[3.0, 3.0], [2.0, 3.0]], 0.7),
        # the positive-slope links fill to the pinned level and no further
        ((0.0, 1.0, 1.0), [[0.5, 0.0, 0.0], [0.5, 0.0, 0.25], [0.0, 0.0, 0.0]], 2.0),
        # rounding clamps the pinned rest at zero
        ((1.3, 3.0, 0.0), [[0.2, 0.0, 1.1]], 1.058974358974359),
        # rounding would stop the fill inside a group of tied intercepts
        ((3.0, 0.3, 1.3, 1.3, 7.0), [[0.0, 1.0, 1.0, 1.0, 1.0]], 0.33333333333333337),
        # zero intercepts everywhere
        ((1.0, 2.0, 3.0), [[0.0, 0.0, 0.0]], 1.0),
        # a single loaded link carries exactly the mass
        ((1.0, 1.0, 3.0), [[0.0, 10.0, 20.0], [0.1, 0.0, 5.0]], 0.3),
        # a zero mass loads nothing at the smallest intercept
        ((1.0, 0.0, 2.0), [[2.0, 3.0, 1.0], [0.0, 0.0, 0.0]], 0.0),
    ]
    cases += [
        # subnormal intercepts, below and among the loaded links
        ((1.0, 2.0, 3.0), [[5e-324, 1e-310, 2.2e-308], [0.0, 5e-324, 5e-324], [1e-310, 1.0, 0.0]], 1e-9),
        ((0.0, 2.0, 3.0), [[1e-310, 5e-324, 0.0], [5e-324, 1e-310, 1e-310]], 0.5),
        # no zero slope, so nothing caps the level
        ((0.5, 2.0, 7.0, 1.0), [[3.0, 0.0, 1.0, 1.0], [0.0, 0.0, 0.0, 9.0], [2.0, 2.0, 2.0, 2.0]], 0.6),
        # only zero slopes: the level is the smallest intercept, tied links share
        ((0.0, 0.0, 0.0), [[2.0, 1.0, 1.0], [0.0, 3.0, 0.0], [5.0, 5.0, 5.0]], 0.9),
        # a mass of 1e300 stops no fill before the last link
        ((1.0, 0.0, 2.0), [[0.0, 5.0, 1.0], [6.0, 5.0, 0.0]], 1e300),
        ((3.0, 1.0, 0.25), [[1.0, 2.0, 1e300], [0.0, 0.0, 0.0]], 1e300),
        # a mass too small to lift the level off the first intercept loads nothing
        ((1.0, 0.1, 1.0), [[1.8819520021759981, 1.0, 0.2]], 1e-17),
    ]
    # batches with no zero slope, with only zero slopes, with equal intercepts
    # at the first rank, and with a zero or a subnormal mass: one fill loop
    # from zero sums and one cap over the zero-slope links serve them all
    no_zero = ((0.5, 2.0, 7.0), [[3.0, 0.0, 1.0], [1e-310, 2.0, 2.0], [4.0, 4.0, 4.0], [0.0, 0.0, 0.0]])
    only_zero = ((0.0, 0.0, 0.0), [[2.0, 1.0, 1.0], [0.0, 3.0, 0.0], [5e-324, 1.0, 5e-324]])
    first_tie = ((1.0, 2.0, 0.0, 3.0), [[0.5, 0.5, 4.0, 1.0], [1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.5, 0.0],
                                        [2.0, 3.0, 1.0, 2.0]])
    for slopes, rows in (no_zero, only_zero, first_tie):
        for mass in (0.0, 5e-324, 1e-310, 0.3, 1.0, 60.0):
            cases.append((slopes, rows, mass))
    for slopes, rows, mass in cases:
        _assert_rows_bitwise_equal_scalar(slopes, rows, mass)
    # rows that overflow: intercepts near the largest float and slopes of
    # 1e300 give inf sums and levels, and NaN stop tests and loads
    overflowing = [
        ((1e300, 0.5, 1.0), [[1.7e308, 1.0e308, 1.5e308], [1e308, 1.7e308, 0.0], [1.0, 1.0, 1.5e308]], 1.0),
        ((2.0, 1e300, 0.0), [[1.5e308, 1.6e308, 1.7e308], [1.7e308, 1e308, 1.0]], 0.5),
        ((0.5, 0.5), [[1.7e308, 1.7e308], [0.0, 1.7e308]], 1e300),
    ]
    with np.errstate(over="ignore", invalid="ignore"):  # the scalar kernel overflows silently
        levels, loads = waterfill_rows(*overflowing[0][:2], 1.0)
        for slopes, rows, mass in overflowing:
            _assert_rows_bitwise_equal_scalar(slopes, rows, mass)
    assert math.isinf(levels[0]) and np.isinf(loads[0]).all()
    # one batch of more than 2,048 rows, pinned and not
    rng = random.Random(BASE_SEED + 13)
    rows = [[rng.uniform(0.0, 3.0) for _ in range(3)] for _ in range(2500)]
    levels, _ = waterfill_rows((0.0, 1.0, 2.0), np.array(rows), 1.0)
    pinned = levels == np.array(rows)[:, 0]
    assert 0 < pinned.sum() < len(rows)
    _assert_rows_bitwise_equal_scalar((0.0, 1.0, 2.0), rows, 1.0)
    levels, loads = waterfill_rows((0.0, 0.0, 2.0), np.array([[1.0, 1.0, 0.0]]), 1.0)
    assert levels.tolist() == [1.0]
    assert loads.tolist() == [[0.25, 0.25, 0.5]]
    _, loads = waterfill_rows((1.0, 1.0, 3.0), np.array([[0.0, 10.0, 20.0]]), 0.3)
    assert loads.tolist() == [[0.3, 0.0, 0.0]]
    # a row holding -0.0: levels compare equal and loads are bit-identical,
    # but a zero level's sign may differ (here -0.0 where the scalar kernel
    # gives 0.0, at mass 0 and at a cap of signed zeros)
    signed = [((1.0, 2.0), [[0.0, -0.0], [-0.0, 0.0]], 0.0),
              ((0.0, 0.0, 1.0), [[0.0, -0.0, 1.0], [-0.0, 0.0, 1.0]], 0.5)]
    for slopes, rows, mass in signed:
        levels, loads = waterfill_rows(slopes, np.array(rows), mass)
        for row, level, load in zip(rows, levels.tolist(), loads.tolist()):
            ref_level, ref_loads = dense_waterfill(slopes, row, mass)
            assert level == ref_level == 0.0, (slopes, row, mass)
            assert bits(load) == bits(ref_loads), (slopes, row, mass)


def _order_cases():
    """Instances for the cached-order tests: the standard ensemble, D0's wide
    range, tied intercepts with zero slopes (pinned levels, tied caps) and
    zero intercepts."""
    rng = random.Random(BASE_SEED + 13)
    cases = [inst for inst, _ in standard_ensemble(120)] + wide_ensemble(300)
    for _ in range(120):
        m = rng.randint(1, 8)
        cases.append(validate([(rng.choice([0.0, 0.0, 1.0, 2.0, 0.5]), float(rng.randint(0, 2)))
                               for _ in range(m)]))
        cases.append(validate([(rng.uniform(0.1, 3.0), 0.0) for _ in range(m)]))
    cases += [
        validate([(0.0, 1.0), (0.0, 1.0), (2.0, 0.0), (1.0, 0.5)]),
        validate([(0.0, 0.0), (0.0, 0.0)]),
        validate([(3.0, 0.0), (0.3, 1.0), (1.3, 1.0), (1.3, 1.0), (7.0, 1.0)]),
        validate([(1.0, 0.0), (1.0, -0.0), (0.0, 0.0), (0.0, -0.0)]),
    ]
    return cases


def test_waterfill_with_cached_order_equals_sorting_kernel_bitwise():
    rng = random.Random(BASE_SEED + 14)
    cases = [(inst, mass) for inst in _order_cases() for mass in (1e-9, rng.uniform(0.0, 2.0), 1.0, 50.0)]
    # the demand reaches the intercept of links 1 and 2, yet the level rounds
    # past it, so both are loaded although the fill stopped at link 1
    cases.append((validate([(5.921205860027916 / 2, 1.9698672070460033),
                            (5.432005339714199 / 2, 1.9778602034046517),
                            (1.0, 1.9778602034046517)]), 0.0013498933405789448))
    for inst, mass in cases:
        b = inst.intercepts
        for slopes in (inst.slopes, tuple(inst.doubled_slopes)):
            want = bits(sorting_waterfill(slopes, b, mass))
            assert bits(dense_waterfill(slopes, b, mass)) == want, (inst, mass)
            assert bits(dense_waterfill(slopes, b, mass, inst.order)) == want, (inst, mass)


def test_induced_optimum_on_arbitrary_loads_equals_dense_solve_bitwise():
    rng = random.Random(BASE_SEED + 15)
    cases = []
    for inst in _order_cases():
        for k in (1, 2, inst.m):
            alpha = rng.uniform(0.0, 1.0)
            cases.append((inst, random_sparse_flow(rng, inst.m, alpha, k), 1.0 - alpha))
    # x lifts links exactly onto other links' intercepts; a tie must keep
    # index order, which sets the order of the kernel's sums
    for _ in range(300):
        m = rng.randint(2, 8)
        b = [float(rng.randint(0, 3)) for _ in range(m)]
        a = [rng.choice([0.5, 1.0, 2.0, rng.uniform(0.1, 3.0)]) for _ in range(m)]
        values = [0.0] * m
        for i in rng.sample(range(m), rng.randint(1, m - 1)):
            if a[i] in (0.5, 1.0, 2.0) and b[i] < 3.0:
                values[i] = (rng.choice([t for t in b if t > b[i]] or [3.0]) - b[i]) / a[i]
        total = 0.0
        for v in values:
            total += v
        inst, x = validate(zip(a, b)), Flow(values, total)
        cases += [(inst, x, beta) for beta in (0.3, 2.0)]
    # x on a zero-slope link leaves its intercept, and the pinned level, unchanged
    inst = validate([(0.0, 1.0), (1.0, 0.0), (0.0, 1.0)])
    cases += [(inst, Flow((0.3, 0.2, 0.0), 0.5), beta) for beta in (0.5, 3.0)]
    for inst, x, beta in cases:
        want_level, want_values = dense_induced_optimum(inst, x, beta)
        try:
            want = Flow(want_values, beta)
        except InvalidMass as exc:  # D0's precision defect: both sides must reject alike
            with pytest.raises(InvalidMass, match=re.escape(str(exc))):
                induced_optimum(inst, x, beta)
            continue
        flow, level = induced_optimum(inst, x, beta)
        assert bits((level.level, flow.values)) == bits((want_level, want.values)), (inst, x, beta)
        assert level.support == frozenset(want.nonzero)


def _solver_flow_cases():
    """Seeded instances for the solver-flow test: standard-range ones, wide-range
    ones (log-uniform 1e-6..1e6, with zero slopes and tied intercepts), a
    pinned level with tied zero-slope links, and a load that underflows."""
    cases = [inst for inst, _ in standard_ensemble(120)]
    rng = random.Random(BASE_SEED + 16)
    for _ in range(200):
        links = []
        for _ in range(rng.randint(2, 8)):
            a = 0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-6, 6)
            b = rng.choice(links)[1] if links and rng.random() < 0.3 else 10.0 ** rng.uniform(-6, 6)
            links.append((a, b))
        cases.append(validate(links))
    cases.append(validate([(1.0, 0.0), (0.0, 0.5), (2.0, 0.1), (0.0, 0.5)]))
    cases.append(validate([(1e308, 0.0), (1e-20, 0.0)]))
    return cases


def _outcome(values, mass, m=None):
    """Flow(values, mass), or solver_flow(values, m, mass) on a {link: load}
    dict of length m if m is given, as (values, mass, nonzero) in hex, or
    its error."""
    try:
        f = Flow(values, mass) if m is None else solver_flow(values, m, mass)
    except ValidationError as exc:
        return type(exc), str(exc)
    return bits((f.values, f.mass)), f.nonzero


def test_solver_flows_equal_flows_checked_in_full():
    # the solvers build their flows with solver_flow, which checks only the
    # loaded links; the public constructor on the same entries scans them all
    def same(f):
        assert _outcome(list(f.values), f.mass) == (bits((f.values, f.mass)), f.nonzero)

    solved = 0
    for inst in _solver_flow_cases():
        for alpha in (0.0, 0.3, 1.0):
            for slopes in (inst.slopes, inst.doubled_slopes):
                # D0's precision defect makes some wide-range solves raise:
                # both constructors must then reject the loads alike
                _, loads = waterfill(slopes, inst.intercepts, alpha, inst.order)
                assert _outcome(dense(loads, inst.m), alpha) == _outcome(loads, alpha, inst.m), (inst, alpha)
            try:
                x, _ = wardrop_flow(inst, alpha)
                flows = [x, system_optimum(inst, alpha)[0], scale_strategy(inst, alpha).flow]
                y, _ = induced_optimum(inst, x, 1.0 - alpha)
                flows += [y, mal_best_response(inst, y, alpha).flow]
            except InvalidMass:
                continue
            for f in flows:
                same(f)
            solved += 1
    assert solved > 900

    # the pinned level splits the rest between the tied zero-slope links 1 and 3
    inst = validate([(1.0, 0.0), (0.0, 0.5), (2.0, 0.1), (0.0, 0.5)])
    _, loads = waterfill(inst.slopes, inst.intercepts, 1.0, inst.order)
    assert sorted(loads) == [0, 1, 2, 3] and loads[1] == loads[3] > 0.0
    # link 0 is loaded, but its load underflows to 0.0 and leaves the support
    inst = validate([(1e308, 0.0), (1e-20, 0.0)])
    _, loads = waterfill(inst.slopes, inst.intercepts, 1.0, inst.order)
    assert 0 in loads and loads[0] == 0.0
    assert wardrop_flow(inst, 1.0)[0].nonzero == (1,)


def test_loads_with_a_bad_entry_are_checked_in_full():
    # a bad entry at a loaded link sends a solver flow through the full check,
    # with its message; plain lists are checked in full as always
    for bad, error in ((math.nan, "finite"), (math.inf, "finite"), (-1e-6, "below clamp")):
        loads = [0.0, 0.5, bad, 0.0]
        for build in (lambda: solver_flow({2: bad, 1: 0.5}, 4, 0.5), lambda: Flow(list(loads), 0.5)):
            with pytest.raises(InvalidFlow, match=error):
                build()
    loads = [-1e-13, 0.0, 0.5]
    assert solver_flow({0: -1e-13, 2: 0.5}, 3, 0.5) == Flow(list(loads), 0.5) == Flow((0.0, 0.0, 0.5), 0.5)
    with pytest.raises(InvalidMass, match="sum to 0.5, declared mass 0.75"):
        solver_flow({0: -1e-13, 2: 0.5}, 3, 0.75)


def test_a_bad_entry_read_as_a_tuple_before_the_check(monkeypatch):
    # bench/tracer.py reads values before the check, which builds the tuple
    # from a solver's dict; clamping noise must then drop that tuple
    check = Flow.__post_init__

    def read_first(flow):
        flow.values
        check(flow)

    monkeypatch.setattr(Flow, "__post_init__", read_first)
    f = solver_flow({2: 0.5, 0: -1e-13}, 3, 0.5)
    assert bits(f.values) == bits((0.0, 0.0, 0.5)) and f.nonzero == (2,)
    assert Flow([-1e-13, 0.0, 0.5], 0.5) == f
    with pytest.raises(InvalidFlow, match="finite"):
        solver_flow({0: 0.5, 1: math.nan}, 2, 0.5)


def _fresh_flows(inst, alpha):
    """Solver and game flows of inst at alpha, none of whose values was read."""
    x, _ = wardrop_flow(inst, alpha)
    y, _ = induced_optimum(inst, x, 1.0 - alpha)
    profile, _ = pure_equilibrium(inst, alpha)
    return [x, y, system_optimum(inst, alpha)[0], mal_best_response(inst, y, alpha).flow,
            scale_strategy(inst, alpha).flow, profile.mal, profile.soc]


def test_unread_solver_flows_behave_as_flows_checked_in_full():
    # each operation gets flows whose values tuple was never built
    operations = [
        repr,
        hash,
        lambda f: repr(pickle.loads(pickle.dumps(f))),
        lambda f: repr(copy.deepcopy(f)),
        lambda f: repr(copy.copy(f)),
        lambda f: bits((f.values, f.mass, f.nonzero)),
    ]
    for inst in [pigou(), tight(10), random_instance(seed=BASE_SEED + 17, m=8), *wide_ensemble(20)]:
        for alpha in (0.0, 0.3, 0.9):
            try:
                full = [Flow(list(f.values), f.mass) for f in _fresh_flows(inst, alpha)]
            except InvalidMass:
                continue  # D0's precision defect
            for operation in operations:
                assert [operation(f) for f in _fresh_flows(inst, alpha)] == [operation(f) for f in full]
            for f, g in zip(_fresh_flows(inst, alpha), full):
                assert f == g and g == f and not f != g
            for f, g in zip(_fresh_flows(inst, alpha), full):
                assert pickle.loads(pickle.dumps(f)) == g and copy.deepcopy(f) == g
    f = wardrop_flow(random_instance(seed=BASE_SEED + 18, m=6), 1.0)[0]
    assert type(f.values) is tuple
    with pytest.raises(AttributeError):
        f.mass = 2.0
    with pytest.raises(AttributeError):
        f.values = (1.0,)


def test_public_flow_never_keeps_the_callers_list():
    inst = random_instance(seed=BASE_SEED + 19, m=6)
    _, loads = dense_waterfill(inst.slopes, inst.intercepts, 1.0, inst.order)
    f = Flow(loads, 1.0)
    before = bits(f.values)
    loads[:] = [7.0] * len(loads)
    assert bits(f.values) == before
    assert cost(inst, f, f) == cost(inst, Flow(tuple(float.fromhex(v) for v in before), 1.0), f)


def test_reports_and_sweeps_never_read_flow_values(monkeypatch):
    reads = []
    values = Flow.values

    def counted(flow):
        reads.append(flow)
        return values.fget(flow)

    monkeypatch.setattr(Flow, "values", property(counted))
    rng = random.Random(BASE_SEED + 20)
    inst = validate([(rng.uniform(0.1, 10.0), rng.uniform(0.0, 10.0)) for _ in range(10_000)])
    report = com_report(inst, 0.5)
    rows = com_sweep(random_instance(seed=BASE_SEED + 21, m=8), [k / 20 for k in range(20)])
    assert reads == []
    assert report.com >= 1.0 - 1e-12 and len(rows) == 20
    # the wrapper does count: the public constructor and repr read values
    repr(Flow([0.5, 0.5], 1.0))
    assert len(reads) == 1


# D0, open: on these instances the unit solves lose precision, and the flow
# check rejects the solver's own loads; fixing it must turn these into passes
D0_INSTANCES = {
    "wide-range": [(44960.76, 0), (893554.2, 0.0053), (4.25e-6, 1490.4)],  # sums 0.99999996, 0.99999999
    "tiny-slope": [(1e-17, 1.0)],  # no link is loaded: the sum is 0.0
}


@pytest.mark.xfail(strict=True, raises=InvalidMass, reason="D0: the solver rejects its own loads")
@pytest.mark.parametrize("solve", [wardrop_flow, system_optimum], ids=lambda f: f.__name__)
@pytest.mark.parametrize("links", D0_INSTANCES.values(), ids=D0_INSTANCES.keys())
def test_unit_solve_on_d0_instances(links, solve):
    flow, _ = solve(validate(links), 1.0)
    assert flow.mass == 1.0


def _largest_condition(instances, masses):
    """The largest kappa of the solves of each mass on each instance, by
    both solvers, after checking each solve's mass error against D15's
    bound: the loads (L - b_i)/a_i miss the mass by at most 8 u kappa,
    where kappa = sum over loaded i of (L + b_i)/a_i / mass is the
    condition number of their sum."""
    u = 2.0**-53
    largest_kappa = 0.0
    for inst in instances:
        for slopes in (inst.slopes, inst.doubled_slopes):
            for mass in masses:
                level, loads = waterfill(slopes, inst.intercepts, mass, inst.order)
                kappa = sum((level + inst.intercepts[i]) / slopes[i] for i in loads) / mass
                error = abs(math.fsum(loads.values()) - mass)
                assert error <= 8.0 * u * kappa, (inst.links, mass, error, kappa)
                largest_kappa = max(largest_kappa, kappa)
    return largest_kappa


def test_unit_solve_mass_error_is_bounded_by_its_condition_number():
    # D15's bound on D0's ensemble; the largest ratio seen is about 4
    largest_kappa = _largest_condition(wide_ensemble(3000), [1.0])
    # the ensemble reaches the conditioning at which D0's solves are rejected
    assert largest_kappa > 1e7


def test_sweep_solve_mass_error_is_bounded_by_its_condition_number():
    # the same bound at the masses of a sweep, alpha = 0.05, 0.10, ..., 0.95,
    # on the first 1,000 instances; on all 3,000 (114,000 solves), as on
    # these, the largest ratio seen is 3.0
    largest_kappa = _largest_condition(wide_ensemble(1000), [k / 20 for k in range(1, 20)])
    assert largest_kappa > 1e7
