import copy
import random
import tracemalloc

import pytest

from malice.flows import waterfill
from malice.game import _most_damaging, _scaled_optimum, unit_optimum

from malice import (
    DegenerateInstance,
    Flow,
    InvalidAlpha,
    InvalidMass,
    Profile,
    check_mal_br,
    check_soc_br,
    com_report,
    com_sweep,
    cost,
    induced_optimum,
    evasive_response,
    flow_cost,
    mal_best_response,
    pigou,
    pure_equilibrium,
    random_instance,
    scale_strategy,
    soc_best_response,
    system_optimum,
    tight,
    validate,
    wardrop_flow,
)

from _support import (
    BASE_SEED,
    bits,
    count_calls,
    dense_check_mal_br,
    dense_check_soc_br,
    dense_cost,
    dense_flow_cost,
    dense_most_damaging,
    grid_best_mal_value,
    grid_best_soc_value,
    random_simplex_point,
    random_sparse_flow,
    standard_ensemble,
    wide_ensemble,
)


def test_mal_best_response_argmax():
    inst = validate([(2, 0), (1, 0)])
    result = mal_best_response(inst, Flow((0.3, 0.4), 0.7), 0.5)
    assert result.flow.values == (0.5, 0.0)


def test_mal_best_response_tie_breaks_low():
    inst = validate([(1, 0), (1, 0)])
    result = mal_best_response(inst, Flow((0.3, 0.3), 0.6), 0.4)
    assert result.flow.values == (0.4, 0.0)


def test_mal_best_response_pigou():
    inst = pigou()
    y = Flow((0.25, 0.25), 0.5)
    result = mal_best_response(inst, y, 0.5)
    assert result.flow.values == (0.0, 0.5)
    assert result.value == pytest.approx(0.4375, abs=1e-15)
    # identity: sum_k y_k l_k(y_k) + alpha * max_k a_k y_k
    identity = (0.25 * 1 + 0.25 * 0.25) + 0.5 * 0.25
    assert result.value == pytest.approx(identity, abs=1e-12)
    assert result.value == pytest.approx(grid_best_mal_value(inst.links, y.values, 0.5), abs=1e-6)


def test_mal_best_response_identity_on_random_plays():
    rng = random.Random(BASE_SEED + 8)
    for inst, alpha in standard_ensemble(100):
        yv = random_simplex_point(rng, inst.m, 1.0 - alpha)
        y = Flow(yv, 1.0 - alpha)
        result = mal_best_response(inst, y, alpha)
        harm = max(a * yi for a, yi in zip(inst.slopes, yv))
        identity = flow_cost(inst, y) + alpha * harm
        assert result.value == pytest.approx(identity, rel=1e-12, abs=1e-12)
        assert result.value == pytest.approx(cost(inst, result.flow, y), abs=1e-12)


def test_mal_best_response_invalid_alpha():
    with pytest.raises(InvalidAlpha):
        mal_best_response(pigou(), Flow((0.25, 0.25), 0.5), 1.5)


def test_soc_best_response_zero_adversary():
    inst = pigou()
    result = soc_best_response(inst, Flow((0.0, 0.0), 0.0))
    assert result.flow.values == system_optimum(inst, 1.0)[0].values
    assert result.value == 0.75


def test_soc_best_response_tight():
    inst = tight(10)
    result = soc_best_response(inst, Flow((0.4, 0.1), 0.5))
    assert result.flow.values == (0.5, 0.0)
    assert result.value == pytest.approx(0.5, abs=1e-15)
    grid = grid_best_soc_value(inst.links, (0.4, 0.1), 0.5)
    assert result.value <= grid + 1e-12


def test_soc_best_response_pigou():
    inst = pigou()
    result = soc_best_response(inst, Flow((0.0, 0.5), 0.5))
    assert result.flow.values == (0.25, 0.25)
    assert result.value == pytest.approx(0.4375, abs=1e-15)
    grid = grid_best_soc_value(inst.links, (0.0, 0.5), 0.5)
    assert result.value <= grid + 1e-12
    assert result.value == pytest.approx(grid, abs=1e-6)


def test_check_mal_br_examples():
    inst = validate([(2, 0), (1, 0)])
    y = Flow((0.3, 0.4), 0.7)
    assert check_mal_br(inst, Flow((0.0, 0.5), 0.5), y) == pytest.approx(0.2, abs=1e-15)
    assert check_mal_br(inst, Flow((0.5, 0.0), 0.5), y) == 0.0
    assert check_mal_br(inst, Flow((0.0, 0.0), 0.0), y) == 0.0


def test_check_soc_br_examples():
    inst = pigou()
    x = Flow((0.0, 0.5), 0.5)
    assert check_soc_br(inst, x, Flow((0.5, 0.0), 0.5)) == pytest.approx(0.5, abs=1e-15)
    y = soc_best_response(inst, x).flow
    assert check_soc_br(inst, x, y) <= 1e-9
    single = validate([(3, 2)])
    assert check_soc_br(single, Flow((0.5,), 0.5), Flow((0.5,), 0.5)) == 0.0


def test_pure_equilibrium_degenerate_alpha_zero():
    inst = pigou()
    profile, certificate = pure_equilibrium(inst, 0.0)
    assert profile.mal.values == (0.0, 0.0)
    assert profile.soc.values == system_optimum(inst, 1.0)[0].values
    assert certificate.value == flow_cost(inst, profile.soc)


def test_pure_equilibrium_degenerate_alpha_one():
    profile, certificate = pure_equilibrium(pigou(), 1.0)
    assert profile.soc.values == (0.0, 0.0)
    assert certificate.value == 0.0


def test_pure_equilibrium_tight():
    profile, certificate = pure_equilibrium(tight(10), 0.5)
    assert profile.mal.values == pytest.approx((0.4, 0.1), abs=1e-15)
    assert profile.soc.values == (0.5, 0.0)
    assert certificate.value == pytest.approx(0.5, abs=1e-15)
    assert certificate.mal_residual <= 1e-9 and certificate.soc_residual <= 1e-9


def test_pure_equilibrium_pigou():
    profile, certificate = pure_equilibrium(pigou(), 0.5)
    assert profile.mal.values == (0.0, 0.5)
    assert profile.soc.values == (0.25, 0.25)
    assert certificate.value == pytest.approx(0.4375, abs=1e-15)
    assert certificate.mal_residual <= 1e-9 and certificate.soc_residual <= 1e-9


def test_pure_equilibrium_invalid_alpha():
    with pytest.raises(InvalidAlpha):
        pure_equilibrium(pigou(), -0.2)


def test_evasive_response_pigou():
    inst = pigou()
    result = evasive_response(inst, Flow((0.5, 0.0), 0.5))
    assert result.flow.values == (0.0, 0.5)
    assert result.value == pytest.approx(0.25, abs=1e-15)
    nash_cost = flow_cost(inst, wardrop_flow(inst, 1.0)[0])
    assert result.value <= 0.5 * nash_cost + 1e-9


def test_evasive_response_alpha_one():
    result = evasive_response(pigou(), Flow((0.0, 1.0), 1.0))
    assert result.flow.values == (0.0, 0.0)
    assert result.value == 0.0


def test_evasive_response_scaled_selfish_play():
    # when the adversary plays alpha times the unit selfish flow, no link is
    # saturated and the greedy fill still meets the guarantee
    for inst, alpha in standard_ensemble(50):
        s, _ = wardrop_flow(inst, 1.0)
        x = Flow(tuple(alpha * v for v in s.values), alpha * 1.0)
        result = evasive_response(inst, x)
        nash_cost = flow_cost(inst, s)
        assert result.value <= (1.0 - alpha) * nash_cost + 1e-9


def test_evasive_response_random_adversary_plays():
    rng = random.Random(BASE_SEED + 9)
    for inst, alpha in standard_ensemble(150):
        nash_cost = flow_cost(inst, wardrop_flow(inst, 1.0)[0])
        for _ in range(3):
            xv = random_simplex_point(rng, inst.m, alpha)
            result = evasive_response(inst, Flow(xv, alpha))
            assert result.value <= (1.0 - alpha) * nash_cost + 1e-9


def test_scale_strategy_no_adversary():
    inst = pigou()
    result = scale_strategy(inst, 0.0)
    assert result.value == flow_cost(inst, system_optimum(inst, 1.0)[0])


def test_scale_strategy_tight():
    result = scale_strategy(tight(10), 0.5)
    assert result.value == pytest.approx(0.60625, abs=1e-15)
    assert result.flow.values == pytest.approx((0.475, 0.025), abs=1e-15)


def test_scale_strategy_expansion_and_bound():
    for inst, alpha in standard_ensemble(200):
        result = scale_strategy(inst, alpha)
        ystar, _ = system_optimum(inst, 1.0)
        opt_cost = flow_cost(inst, ystar)
        harm = [a * v for a, v in zip(inst.slopes, ystar.values)]
        t = harm.index(max(harm))
        spread = harm[t] + sum(b * v for (_, b), v in zip(inst.links, ystar.values))
        expansion = (1 - alpha) ** 2 * opt_cost + alpha * (1 - alpha) * spread
        assert abs(result.value - expansion) <= 1e-9 * max(1.0, abs(result.value))
        assert result.value <= (1 + alpha / 2) * (1 - alpha) * opt_cost + 1e-9
        assert spread <= 1.5 * opt_cost + 1e-9


def test_com_report_tight_large_m():
    M = 1000.0
    report = com_report(tight(M), 0.5)
    assert report.com == pytest.approx(4 * M / (4 * M - 1), abs=1e-12)
    assert report.opt_cost_1 == pytest.approx((4 * M - 1) / (4 * M), abs=1e-15)
    assert report.nash_cost_1 == 1.0


def test_com_report_pigou():
    report = com_report(pigou(), 0.5)
    assert report.com == pytest.approx(7 / 6, abs=1e-12)
    assert report.eq_value == pytest.approx(0.4375, abs=1e-15)


def test_com_report_alpha_zero_is_exactly_one():
    for inst in (pigou(), tight(10), random_instance(seed=5, m=4)):
        report = com_report(inst, 0.0)
        assert report.com == 1.0


def test_com_report_solves_unit_optimum_once(monkeypatch):
    # unit Wardrop, unit optimum, then the equilibrium's Wardrop and induced optimum
    calls = count_calls(monkeypatch, waterfill)
    com_report(random_instance(seed=5, m=4), 0.5)
    assert calls["waterfill"] == 4


def test_com_report_rejections():
    with pytest.raises(InvalidAlpha):
        com_report(pigou(), 1.0)
    with pytest.raises(DegenerateInstance):
        com_report(validate([(0, 0), (0, 0)]), 0.5)


def test_com_report_invariants_on_ensemble():
    checked = 0
    for inst, alpha in standard_ensemble(200):
        if flow_cost(inst, system_optimum(inst, 1.0)[0]) == 0.0:
            continue
        report = com_report(inst, alpha)
        assert report.eq_value <= report.evasive_bound + 1e-9
        assert report.com <= report.bound_43 + 1e-9
        assert report.com <= report.bound_scale + 1e-9
        checked += 1
    assert checked > 150


def test_equilibrium_property_suite():
    for inst, alpha in standard_ensemble(300):
        profile, certificate = pure_equilibrium(inst, alpha)
        # the adversary's play is exactly the selfish flow of its mass
        assert profile.mal.values == wardrop_flow(inst, alpha)[0].values
        assert certificate.mal_residual <= 1e-7
        assert certificate.soc_residual <= 1e-7
        assert check_mal_br(inst, profile.mal, profile.soc) <= 1e-7
        nash_cost = flow_cost(inst, wardrop_flow(inst, 1.0)[0])
        opt_cost = flow_cost(inst, system_optimum(inst, 1.0)[0])
        eq = certificate.value
        assert eq <= (1 - alpha) * nash_cost + 1e-9
        assert eq <= (4 / 3) * (1 - alpha) * opt_cost + 1e-9
        assert eq <= scale_strategy(inst, alpha).value + 1e-9
        assert eq >= flow_cost(inst, system_optimum(inst, 1.0 - alpha)[0]) - 1e-9


def test_sparse_sums_and_checks_equal_dense_references_bitwise():
    rng = random.Random(BASE_SEED + 16)
    insts = [inst for inst, _ in standard_ensemble(150)] + wide_ensemble(150) + [
        validate([(0.0, 1.0), (0.0, 0.0), (2.0, 0.5)]),
        validate([(1.0, -0.0), (2.0, 0.0), (0.0, -0.0)]),
        validate([(1e308, 1e308), (1.0, 0.0)]),
    ]
    for inst in insts:
        m = inst.m
        flat = tuple(float(a == 0.0) for a in inst.slopes)
        pairs = [(random_sparse_flow(rng, m, 0.4, k), random_sparse_flow(rng, m, 0.6, j))
                 for k, j in ((1, 1), (1, m), (m, 2), (2, m))]
        pairs.append((random_sparse_flow(rng, m, 0.4, 2), Flow((0.0,) * m, 0.0)))
        if 0.0 < sum(flat) < m:
            # y only on zero-slope links: every damage a_k y_k is zero
            pairs.append((Flow(flat, sum(flat)), Flow(flat, sum(flat))))
        for x, y in pairs:
            assert bits(cost(inst, x, y)) == bits(dense_cost(inst, x, y)), (inst, x, y)
            assert bits(flow_cost(inst, y)) == bits(dense_flow_cost(inst, y))
            assert bits(check_mal_br(inst, x, y)) == bits(dense_check_mal_br(inst, x, y)), (inst, x, y)
            assert bits(check_soc_br(inst, x, y)) == bits(dense_check_soc_br(inst, x, y)), (inst, x, y)
            assert _most_damaging(inst.slopes, y._loads, y.nonzero) == dense_most_damaging(inst, y.values)
    # a -0.0 slope is stored as +0.0, so every damage is +0.0, on y's link and off it
    inst = validate([(-0.0, 1.0), (0.0, 1.0)])
    assert bits(inst.slopes) == ["0x0.0p+0"] * 2
    x = y = Flow((0.0, 1.0), 1.0)
    assert bits(check_mal_br(inst, x, y)) == bits(dense_check_mal_br(inst, x, y)) == "0x0.0p+0"
    # a_0 x_0 + b_0 overflows where y is zero: the dense sum is NaN, and so is cost
    inst = validate([(1e308, 1e308), (1.0, 0.0)])
    assert bits(cost(inst, Flow((1.0, 0.0), 1.0), Flow((0.0, 1.0), 1.0))) == "nan"


def _offset_cases():
    """(instance, alpha) pairs for the offsets' exactness: standard and wide
    ranges, zero-slope links (pinned levels, links no damage reaches), an
    alpha near 1, and a latency that overflows on the attacked link."""
    rng = random.Random(BASE_SEED + 23)
    insts = [inst for inst, _ in standard_ensemble(120)] + wide_ensemble(120)
    for _ in range(60):
        m = rng.randint(1, 7)
        insts.append(validate([(rng.choice([0.0, 0.0, 1.0, 2.5]), float(rng.randint(0, 2))) for _ in range(m)]))
    insts.append(validate([(0.0, 1.0), (0.0, 1.0), (0.0, 2.0)]))  # every slope zero
    insts.append(validate([(1e308, 1e308), (0.0, 0.0)]))  # a_0 alpha + b_0 overflows
    return [(inst, alpha) for inst in insts for alpha in (0.0, 0.3, rng.random(), 0.9, 1.0 - 1e-9)]


def test_scaled_value_is_the_cost_of_the_attack_on_the_scaled_flow_bitwise():
    checked = 0
    for inst, alpha in _offset_cases():
        try:
            ystar, _ = system_optimum(inst, 1.0)
        except InvalidMass:  # D0's precision defect
            continue
        opt_cost = flow_cost(inst, ystar)
        y = scale_strategy(inst, alpha).flow
        total = 0.0
        for v in ystar.values:
            total += (1.0 - alpha) * v
        assert y == Flow(tuple((1.0 - alpha) * v for v in ystar.values), total), (inst, alpha)
        want = cost(inst, mal_best_response(inst, y, alpha).flow, y)
        _, got = _scaled_optimum(inst, alpha, ystar, opt_cost, unit_optimum(inst)[2])
        assert bits(got) == bits(want), (inst, alpha)
        checked += 1
    assert checked > 1400
    # y only on the zero-slope link 1, so MAL attacks link 0, whose latency
    # overflows: both sides read 0 * inf there
    inst = validate([(1e308, 1e308), (0.0, 0.0)])
    ystar, _ = system_optimum(inst, 1.0)
    assert bits(_scaled_optimum(inst, 0.9, ystar, 0.0, unit_optimum(inst)[2])[1]) == "nan"


def test_pure_equilibrium_profile_equals_the_checked_profile():
    checked = 0
    for inst, alpha in _offset_cases():
        try:
            profile, _ = pure_equilibrium(inst, alpha)
        except InvalidMass:  # D0's precision defect
            continue
        x, _ = wardrop_flow(inst, alpha)
        y, _ = induced_optimum(inst, x, 1.0 - alpha)
        full = Profile(mal=x, soc=y, alpha=alpha)
        assert profile == full and hash(profile) == hash(full) and repr(profile) == repr(full)
        assert bits((profile.alpha, profile.mal.mass, profile.soc.mass)) == bits((alpha, alpha, 1.0 - alpha))
        assert Profile(mal=profile.mal, soc=profile.soc, alpha=profile.alpha) == profile
        checked += 1
    assert checked > 1400


@pytest.mark.parametrize("run", [lambda inst: com_report(inst, 0.5),
                                 lambda inst: com_sweep(inst, [0.25, 0.5, 0.75])],
                         ids=["com_report", "com_sweep"])
def test_reports_take_memory_of_the_support_not_of_the_links(run):
    # 100,000 links load a few hundred at the equilibrium; a dense buffer
    # of one float per link alone would take 800 KB
    rng = random.Random(BASE_SEED + 24)
    inst = validate([(rng.uniform(0.1, 10.0), rng.uniform(0.0, 10.0)) for _ in range(100_000)])
    run(inst)
    # inst's memo holds its unit solves; an equal copy solves them again
    for target in (inst, copy.copy(inst)):
        tracemalloc.start()
        try:
            run(target)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024
