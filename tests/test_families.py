import pytest

from malice import (
    DegenerateInstance,
    InvalidAlpha,
    InvalidM,
    NonPositiveM,
    com_report,
    com_sweep,
    flow_cost,
    network,
    network_demo,
    pigou,
    random_instance,
    system_optimum,
    tight,
    validate,
    wardrop_flow,
)

from malice.families import MAX_LINKS
from malice.flows import waterfill

from _support import count_calls, wide_ensemble


def test_pigou_constructor():
    inst = pigou()
    assert inst.links == ((0.0, 1.0), (1.0, 0.0))
    assert flow_cost(inst, wardrop_flow(inst, 1.0)[0]) == 1.0
    assert flow_cost(inst, system_optimum(inst, 1.0)[0]) == 0.75


def test_tight_constructor():
    M = 10.0
    inst = tight(M)
    assert inst.links == ((0.0, 1.0), (M, 0.0))
    flow, _ = system_optimum(inst, 1.0)
    assert flow.values == pytest.approx(((2 * M - 1) / (2 * M), 1 / (2 * M)), abs=1e-15)
    assert flow_cost(inst, flow) == pytest.approx((4 * M - 1) / (4 * M), abs=1e-15)
    with pytest.raises(NonPositiveM):
        tight(0)
    with pytest.raises(NonPositiveM):
        tight(-3)


def test_network_constructor():
    assert network(3).links == ((1.0, 0.0),) * 3
    for m in (0, 2.5, 1_000_001):
        with pytest.raises(InvalidM):
            network(m)


def test_network_demo_single_link():
    bound, report = network_demo(1, 0.3)
    assert bound == pytest.approx(1.0, abs=1e-12)
    assert report["closed_form"] == pytest.approx(1.0, abs=1e-15)


def test_network_demo_example():
    bound, report = network_demo(10, 0.5)
    assert bound == pytest.approx(5.5, abs=1e-9)
    assert report["closed_form"] == 5.5
    assert abs(bound - report["closed_form"]) <= 1e-9


def test_network_demo_matches_closed_form():
    for m in (1, 2, 4, 8, 16):
        for alpha in (0.0, 0.25, 0.5, 0.9):
            bound, report = network_demo(m, alpha)
            assert abs(bound - ((1 - alpha) + alpha * m)) <= 1e-9
            assert report["m"] == m


def test_network_demo_affine_growth():
    alpha = 0.5
    bounds = [network_demo(m, alpha)[0] for m in (1, 2, 4, 8, 16)]
    for m, bound in zip((1, 2, 4, 8, 16), bounds):
        assert bound == pytest.approx(bounds[0] + alpha * (m - 1), abs=1e-9)


def test_network_demo_rejections():
    with pytest.raises(InvalidM):
        network_demo(0, 0.5)
    with pytest.raises(InvalidM):
        network_demo(2.5, 0.5)
    with pytest.raises(InvalidAlpha):
        network_demo(3, 1.0)


def test_random_instance_deterministic():
    one = random_instance(seed=42, m=5)
    two = random_instance(seed=42, m=5)
    assert one.links == two.links
    other = random_instance(seed=43, m=5)
    assert one.links != other.links


def test_random_instance_shape_and_range():
    inst = random_instance(seed=7, m=5)
    assert inst.m == 5
    for a, b in inst.links:
        assert 0.0 <= a <= 10.0
        assert 0.0 <= b <= 10.0


def test_random_instance_forces_zeros():
    zero_count = 0
    for seed in range(200):
        inst = random_instance(seed=seed, m=4)
        zero_count += sum(1 for a, b in inst.links if a == 0.0) \
            + sum(1 for a, b in inst.links if b == 0.0)
    # 1600 coefficients at 10% forced zeros; loose two-sided check
    assert 80 <= zero_count <= 320


def test_random_instance_caps_link_count():
    with pytest.raises(InvalidM):
        random_instance(seed=1, m=1_000_001)


@pytest.mark.parametrize("m", [0, -3, 2.5, "3", True, MAX_LINKS + 1])
def test_link_count_rule_is_shared(m):
    # both generators take an integer, not a bool, in [1, MAX_LINKS]
    with pytest.raises(InvalidM, match=r"link count must be an integer in \[1, 1000000\]"):
        network(m)
    with pytest.raises(InvalidM, match=r"link count must be an integer in \[1, 1000000\]"):
        random_instance(seed=1, m=m)


def test_sweep_alpha_zero_row():
    rows = com_sweep(pigou(), [0.0, 0.5])
    assert rows[0].alpha == 0.0
    assert rows[0].com == 1.0
    assert rows[0].bound_43 == pytest.approx(4 / 3, abs=1e-15)


def test_sweep_rows_sorted():
    rows = com_sweep(pigou(), [0.6, 0.1, 0.3])
    assert [row.alpha for row in rows] == [0.1, 0.3, 0.6]


def test_sweep_tight_large_m_tracks_scale_bound():
    inst = tight(1000)
    alphas = [round(0.05 * k, 2) for k in range(19)]  # 0.00 .. 0.90
    for row in com_sweep(inst, alphas):
        assert abs(row.scale_com - (1 + row.alpha / 2)) <= 2e-3


def test_bound_columns_cross_at_two_thirds():
    rows = com_sweep(pigou(), [0.2, 0.5, 2 / 3, 0.7, 0.9])
    for row in rows:
        if row.alpha < 2 / 3 - 1e-12:
            assert row.bound_scale < row.bound_43
        elif row.alpha > 2 / 3 + 1e-12:
            assert row.bound_scale > row.bound_43
        else:
            assert row.bound_scale == pytest.approx(row.bound_43, abs=1e-12)


def test_sweep_rejects_bad_alpha():
    with pytest.raises(InvalidAlpha):
        com_sweep(pigou(), [0.5, 1.0])


def _standard_without_free_links(seed, m):
    """random_instance(seed, m) with each (0, 0) link, on which a report is
    undefined, given the intercept 1."""
    return validate([(a, b if a or b else 1.0) for a, b in random_instance(seed=seed, m=m).links])


def test_sweep_rows_match_com_report():
    alphas = [0.0, 0.25, 0.5, 0.9]
    wide = wide_ensemble(1, seed=0)[0]  # a wide-range instance that solves
    for inst in (pigou(), tight(1000), random_instance(seed=3, m=8),
                 _standard_without_free_links(seed=17, m=10_000), wide):
        for row in com_sweep(inst, alphas):
            report = com_report(inst, row.alpha)
            assert (row.eq_value, row.com, row.bound_43, row.bound_scale) == (
                report.eq_value, report.com, report.bound_43, report.bound_scale)
            assert row.scale_com == report.scale_value / ((1 - row.alpha) * report.opt_cost_1)


def test_sweep_solves_unit_flows_once(monkeypatch):
    calls = count_calls(monkeypatch, waterfill)
    com_sweep(random_instance(seed=3, m=8), [0.1 * k for k in range(10)])
    assert calls["waterfill"] == 2 + 2 * 10


def test_sweep_degenerate_instance_keeps_error_order():
    inst = validate([(0, 0), (0, 0)])
    assert com_sweep(inst, []) == []
    with pytest.raises(InvalidAlpha):
        com_sweep(inst, [1.0])
    with pytest.raises(DegenerateInstance):
        com_sweep(inst, [0.5, 1.0])


def test_generated_instances_validate():
    for inst in (pigou(), tight(3), random_instance(seed=11, m=6)):
        rebuilt = validate(inst.links)
        assert rebuilt.links == inst.links
