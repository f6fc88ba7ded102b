"""Boundary cases that no other test reaches: each fails if one named
comparison of the library is flipped between strict and non-strict (or,
for the evasive reply's residue, has its threshold raised), and passes on
the code as it is."""

import math

import pytest

from malice import Flow, InvalidFlow, check_mal_br, check_soc_br, evasive_response, validate, wardrop_flow, waterfill
from malice.model import ENTRY_CLAMP, solver_flow


def test_an_entry_of_exactly_minus_the_clamp_is_noise():
    # model._entry: v < -ENTRY_CLAMP raises; -ENTRY_CLAMP itself clamps to 0.0
    assert Flow([-ENTRY_CLAMP, 1.0], 1.0).values == (0.0, 1.0)
    assert solver_flow({0: -ENTRY_CLAMP, 1: 1.0}, 2, 1.0).nonzero == (1,)
    with pytest.raises(InvalidFlow, match="below clamp"):
        Flow([-1.0000001e-12, 1.0], 1.0)


def test_evasive_reply_places_the_rooms_float_residue():
    # game.evasive_response: x overshoots its mass by 0.9e-9, within the sum
    # tolerance, so the rooms sum to 0.9e-9 short of SOC's mass; the residue
    # (remaining > 0.0) goes to the last link filled.  Without it the reply
    # would still pass the sum check, 0.9e-9 short.
    inst = validate([(1.0, 0.0), (1.0, 0.0)])
    x = Flow((0.25, 0.25 + 0.9e-9), 0.5)
    y = evasive_response(inst, x).flow
    assert y.mass == 0.5 and y.nonzero == (0, 1)
    assert abs(math.fsum(y.values) - 0.5) < 1e-15


def test_fill_stops_at_an_intercept_the_demand_exactly_reaches():
    # flows.waterfill: inv_sum * t - off_sum >= mass stops the fill.  Here the
    # demand reaches the next intercept exactly, so the level is that
    # intercept and the next link stays empty; joining it would shift the
    # level by rounding and, in the second case, load it with 5.6e-17.
    assert waterfill([1.0, 10.0], [0.3, 1.5], 1.2) == (1.5, {0: 1.2})
    assert waterfill([10.0, 2.0], [0.2, 0.5], 0.030000000000000002) == (0.5, {0: 0.030000000000000002})
    flow, level = wardrop_flow(validate([(1.0, 0.3), (10.0, 1.5)]), 1.2)
    assert level.level == 1.5 and flow.nonzero == (0,)


def test_an_adversary_entry_of_exactly_the_tolerance_is_not_support():
    # game.check_mal_br: only x entries above CHECK_TOL (1e-9) count as
    # loaded; link 0, at exactly 1e-9, would otherwise add a 0.3 shortfall
    inst = validate([(1.0, 0.0), (1.0, 0.0)])
    y = Flow((0.1, 0.4), 0.5)
    assert check_mal_br(inst, Flow((1e-9, 0.5 - 1e-9), 0.5), y) == 0.0
    assert check_mal_br(inst, Flow((2e-9, 0.5 - 2e-9), 0.5), y) == pytest.approx(0.3)


def test_a_social_entry_of_exactly_the_tolerance_is_scanned():
    # game.check_soc_br: the intercept-order scan skips only the links whose
    # y entries are above CHECK_TOL (1e-9), whose marginals it already has;
    # link 0, at exactly 1e-9, has the smallest marginal, 2e-9, which sets
    # the residual (skipped, it would leave the residual at 0.0)
    inst = validate([(1.0, 0.0), (1.0, 0.0)])
    y = Flow((1e-9, 0.5 - 1e-9), 0.5)
    assert check_soc_br(inst, Flow((0.0, 0.0), 0.0), y) == 2.0 * (0.5 - 1e-9) - 2.0 * 1e-9
