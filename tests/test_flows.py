import math
import random
import re

import numpy as np
import pytest

from malice import (
    Flow,
    InvalidMass,
    cost,
    flow_cost,
    induced_optimum,
    pigou,
    random_instance,
    system_optimum,
    tight,
    validate,
    wardrop_flow,
    waterfill,
    waterfill_rows,
)

from _support import (
    BASE_SEED,
    bisect_waterfill,
    bits,
    dense_induced_optimum,
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
    for k in range(30):
        inst = random_instance(seed=2000 + k, m=rng.randint(1, 6))
        beta = rng.uniform(0, 1)
        direct, _ = system_optimum(inst, beta)
        shifted, _ = induced_optimum(inst, Flow.zero(inst.m), beta)
        assert shifted.values == direct.values


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
    assert flow_cost(inst, Flow.zero(2)) == 0.0


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


def _assert_rows_bitwise_equal_scalar(slopes, rows, mass):
    levels, loads = waterfill_rows(slopes, np.array(rows, dtype=np.float64), mass)
    assert loads.shape == (len(rows), len(slopes))
    for row, level, load in zip(rows, levels.tolist(), loads.tolist()):
        ref_level, ref_loads = waterfill(slopes, row, mass)
        assert level.hex() == ref_level.hex(), (slopes, row, mass)
        assert [v.hex() for v in load] == [v.hex() for v in ref_loads], (slopes, row, mass)


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
    for slopes, rows, mass in cases:
        _assert_rows_bitwise_equal_scalar(slopes, rows, mass)
    levels, loads = waterfill_rows((0.0, 0.0, 2.0), np.array([[1.0, 1.0, 0.0]]), 1.0)
    assert levels.tolist() == [1.0]
    assert loads.tolist() == [[0.25, 0.25, 0.5]]
    _, loads = waterfill_rows((1.0, 1.0, 3.0), np.array([[0.0, 10.0, 20.0]]), 0.3)
    assert loads.tolist() == [[0.3, 0.0, 0.0]]


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
            assert bits(waterfill(slopes, b, mass)) == want, (inst, mass)
            if inst.order is not None:
                assert bits(waterfill(slopes, b, mass, inst.order)) == want, (inst, mass)


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
        assert level.support == want.support
