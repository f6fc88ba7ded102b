import copy
import math
import pickle
import random
import sys
from dataclasses import MISSING, FrozenInstanceError, asdict, fields, replace

import pytest

from malice import (
    DimensionMismatch,
    EmptyInstance,
    Flow,
    InvalidAlpha,
    InvalidFlow,
    InvalidMass,
    NegativeCoefficient,
    NonFiniteCoefficient,
    Profile,
    SubnormalSlope,
    ValidationError,
    cost,
    emit_instance,
    flow_cost,
    instance_digest,
    parse_instance,
    pigou,
    random_instance,
    tight,
    validate,
)
from malice.model import dumps

from _support import BASE_SEED


def test_validate_well_formed():
    inst = validate([(1, 0), (0, 1)])
    assert inst.m == 2
    assert inst.slopes == (1.0, 0.0)
    assert inst.intercepts == (0.0, 1.0)
    assert repr(inst) == "Instance(links=((1.0, 0.0), (0.0, 1.0)))"
    assert inst == validate([(1.0, 0.0), (0, 1)])


def test_validate_empty():
    with pytest.raises(EmptyInstance):
        validate([])


def test_validate_negative():
    with pytest.raises(NegativeCoefficient):
        validate([(-1, 0)])
    with pytest.raises(NegativeCoefficient):
        validate([(1, -0.5)])


def test_validate_non_finite():
    with pytest.raises(NonFiniteCoefficient):
        validate([(math.nan, 0)])
    with pytest.raises(NonFiniteCoefficient):
        validate([(1, math.inf)])
    with pytest.raises(NonFiniteCoefficient):
        validate([(10**400, 0)])


def test_validate_subnormal_slope():
    # the solvers divide by slopes; 1/5e-324 overflows
    for links in ([(5e-324, 1.0)], [(5e-324, 0.0)], [(1, 0), (sys.float_info.min / 2, 3)]):
        with pytest.raises(SubnormalSlope):
            validate(links)
    assert issubclass(SubnormalSlope, ValidationError)
    assert validate([(sys.float_info.min, 1.0), (0.0, 5e-324)]).m == 2


def test_cost_soc_on_constant_link():
    inst = pigou()
    x = Flow((0.0, 0.5), 0.5)
    y = Flow((0.5, 0.0), 0.5)
    assert cost(inst, x, y) == 0.5


def test_cost_shared_link():
    inst = pigou()
    x = Flow((0.0, 0.5), 0.5)
    y = Flow((0.0, 0.5), 0.5)
    assert cost(inst, x, y) == 0.5


def test_cost_tight_scaled_profile():
    # scaled-optimum SOC play against the adversary on the steep link;
    # cross-checked against the closed form (1-a)((4+2a)M - 1 - a)/(4M)
    M, alpha = 10.0, 0.5
    inst = tight(M)
    x = Flow((0.0, 0.5), 0.5)
    y = Flow((0.475, 0.025), 0.5)
    value = cost(inst, x, y)
    assert value == pytest.approx(0.60625, abs=1e-15)
    closed = (1 - alpha) * ((4 + 2 * alpha) * M - 1 - alpha) / (4 * M)
    assert value == pytest.approx(closed, abs=1e-12)


def test_cost_dimension_mismatch():
    inst = pigou()
    with pytest.raises(DimensionMismatch):
        cost(inst, Flow((0.5,), 0.5), Flow((0.0, 0.5), 0.5))
    with pytest.raises(DimensionMismatch):
        cost(inst, Flow((0.0, 0.5), 0.5), Flow((0.5,), 0.5))


def test_cost_monotone_in_adversary_loads():
    rng = random.Random(BASE_SEED)
    for k in range(100):
        inst = random_instance(seed=k, m=rng.randint(1, 6))
        m = inst.m
        xv = [rng.uniform(0, 0.5) for _ in range(m)]
        yv = [rng.uniform(0, 0.5) for _ in range(m)]
        x = Flow(tuple(xv), sum(xv))
        y = Flow(tuple(yv), sum(yv))
        base = cost(inst, x, y)
        i = rng.randrange(m)
        bumped = list(xv)
        bumped[i] += rng.uniform(0, 1)
        x2 = Flow(tuple(bumped), sum(bumped))
        assert cost(inst, x2, y) >= base - 1e-12


def test_cost_zero_adversary_equals_flow_cost_bitwise():
    rng = random.Random(BASE_SEED + 1)
    for k in range(50):
        inst = random_instance(seed=1000 + k, m=rng.randint(1, 8))
        yv = tuple(rng.uniform(0, 1) for _ in range(inst.m))
        y = Flow(yv, sum(yv))
        assert cost(inst, Flow((0.0,) * inst.m, 0.0), y) == flow_cost(inst, y)


def test_flow_clamps_tiny_negative():
    f = Flow((-1e-13, 0.5), 0.5)
    assert f.values == (0.0, 0.5)
    assert frozenset(f.nonzero) == frozenset({1})


def test_flow_rejects_bad_entries():
    with pytest.raises(InvalidFlow):
        Flow((-1e-6, 0.5), 0.5)
    with pytest.raises(InvalidFlow):
        Flow((math.nan, 0.5), 0.5)


def test_flow_rejects_bad_mass():
    with pytest.raises(InvalidMass):
        Flow((0.5, 0.5), 0.5)
    with pytest.raises(InvalidMass):
        Flow((0.0,), -1.0)
    with pytest.raises(InvalidMass):
        Flow((0.0,), math.inf)


def test_zero_flow():
    f = Flow((0.0,) * 3, 0.0)
    assert f.values == (0.0, 0.0, 0.0)
    assert f.mass == 0.0
    assert frozenset(f.nonzero) == frozenset()


def test_profile_checks():
    mal = Flow((0.25, 0.0), 0.25)
    soc = Flow((0.25, 0.5), 0.75)
    profile = Profile(mal=mal, soc=soc, alpha=0.25)
    assert profile.alpha == 0.25
    with pytest.raises(InvalidMass):
        Profile(mal=mal, soc=soc, alpha=0.5)
    with pytest.raises(InvalidAlpha):
        Profile(mal=mal, soc=soc, alpha=1.5)
    with pytest.raises(DimensionMismatch):
        Profile(mal=Flow((0.25,), 0.25), soc=soc, alpha=0.25)


def test_roundtrip_named_families():
    for inst in (pigou(), tight(10), tight(1000), validate([(3, 2)])):
        again = parse_instance(emit_instance(inst))
        assert again.links == inst.links


def test_roundtrip_random_decimals_bit_exact():
    # decimal literals with <= 15 significant digits survive emit/parse exactly
    rng = random.Random(BASE_SEED + 2)
    for _ in range(200):
        digits = rng.randint(1, 15)
        a = float(f"{rng.uniform(0, 10):.{digits}g}")
        b = float(f"{rng.uniform(0, 10):.{digits}g}")
        inst = validate([(a, b), (1.0, 0.0)])
        again = parse_instance(emit_instance(inst))
        assert again.links == inst.links


def test_dumps_17_significant_digits():
    assert dumps(0.1) == "0.10000000000000001"
    assert dumps(0.5) == "0.5"
    assert dumps({"a": [1.0, 2], "ok": True}) == '{\n  "a": [1, 2],\n  "ok": true\n}'


def test_dumps_layout():
    # scalar arrays stay on one line; other arrays and objects put one item on each line
    assert dumps(None) == "null"
    assert dumps((1, 2.5, "x")) == '[1, 2.5, "x"]'
    assert dumps([True, False]) == "[\n  true,\n  false\n]"
    assert dumps({"l": [], "d": {}, "n": None}) == '{\n  "l": [],\n  "d": {},\n  "n": null\n}'
    assert dumps([{"a": 1}, {"b": [0.5, -0.0]}]) == (
        '[\n  {\n    "a": 1\n  },\n  {\n    "b": [0.5, -0]\n  }\n]'
    )
    assert dumps({"rows": [1, {"k": "v"}]}) == (
        '{\n  "rows": [\n    1,\n    {\n      "k": "v"\n    }\n  ]\n}'
    )


def test_parse_rejects_malformed():
    with pytest.raises(ValidationError):
        parse_instance("not json")
    with pytest.raises(ValidationError):
        parse_instance("{}")
    with pytest.raises(ValidationError):
        parse_instance('{"links": [{"a": 1}]}')
    with pytest.raises(ValidationError):
        parse_instance('{"links": [{"a": "x", "b": 0}]}')
    with pytest.raises(NegativeCoefficient):
        parse_instance('{"links": [{"a": -1, "b": 0}]}')
    with pytest.raises(NonFiniteCoefficient):
        parse_instance('{"links": [{"a": 1' + "0" * 400 + ', "b": 0}]}')
    with pytest.raises(ValidationError):
        parse_instance("[" * 100_000 + "]" * 100_000)


def test_instance_digest_depends_on_coefficients():
    d1 = instance_digest(pigou())
    d2 = instance_digest(pigou())
    d3 = instance_digest(tight(10))
    assert d1 == d2
    assert d1 != d3
    assert len(d1) == 64


def test_cached_order_stays_out_of_repr_eq_and_hash():
    inst = validate([(2, 1), (0, 3), (1, 1), (0, 1)])
    assert repr(inst) == "Instance(links=((2.0, 1.0), (0.0, 3.0), (1.0, 1.0), (0.0, 1.0)))"
    assert hash(inst) == hash((inst.links,))
    assert [list(part) for part in inst.order] == [[0, 2], [3, 1]]
    assert list(inst.doubled_slopes) == [4.0, 0.0, 2.0, 0.0]
    with pytest.raises(TypeError):
        inst.order[0][0] = 2
    for twin in (pickle.loads(pickle.dumps(inst)), copy.deepcopy(inst)):
        assert twin == inst and [list(part) for part in twin.order] == [[0, 2], [3, 1]]
    # a -0.0 intercept is stored as +0.0, so the instance has its +0.0 twin's order
    signed, plain = validate([(1, -0.0), (1, 0.0)]), validate([(1, 0.0), (1, 0.0)])
    assert [b.hex() for b in signed.intercepts] == ["0x0.0p+0"] * 2
    assert [list(part) for part in signed.order] == [list(part) for part in plain.order] == [[0, 1], []]
    assert signed == plain and hash(signed) == hash(plain)
    f = Flow([0.0, 0.25, 0, 0.75], 1.0)
    assert repr(f) == "Flow(values=(0.0, 0.25, 0.0, 0.75), mass=1.0)"
    assert f == Flow((0.0, 0.25, 0.0, 0.75), 1.0) and hash(f) == hash((f.values, f.mass))
    assert f.nonzero == (1, 3)


def test_signed_zero_coefficients_serialize_as_positive_zeros():
    signed = validate([(-0.0, -0.0), (1, 0.0)])
    plain = validate([(0.0, 0.0), (1, 0.0)])
    parsed = parse_instance('{"links": [{"a": -0.0, "b": -0.0}, {"a": 1, "b": 0}]}')
    for inst in (signed, parsed):
        assert emit_instance(inst) == emit_instance(plain)
        assert instance_digest(inst) == instance_digest(plain)


@pytest.mark.parametrize("pad", [0, 1000])
def test_flow_checks_short_and_long_flows_alike(pad):
    zeros = (0.0,) * pad
    f = Flow(zeros + (-1e-13, 0.5, "0.25", 0, -0.0) + zeros, 0.75)
    assert [v.hex() for v in f.values] == [v.hex() for v in zeros + (0.0, 0.5, 0.25, 0.0, -0.0) + zeros]
    assert f.nonzero == (pad + 1, pad + 2)
    assert Flow(iter(zeros + (0.5,)), 0.5).nonzero == (pad,)
    # the first bad entry, in index order, names the error
    with pytest.raises(InvalidFlow, match="finite"):
        Flow(zeros + (math.nan, "x"), 0.0)
    with pytest.raises(InvalidFlow, match="finite"):
        Flow(zeros + (10**400, "x"), 0.0)
    with pytest.raises(InvalidFlow, match="'x' is not a number"):
        Flow(zeros + ("x", math.nan), 0.0)
    with pytest.raises(InvalidFlow, match="below clamp"):
        Flow(zeros + (0.5, -1e-6, math.inf), 0.5)
    with pytest.raises(InvalidMass, match="sum to inf"):
        Flow(zeros + (1e308, 1e308), 1.0)


def test_instance_and_flow_attributes_are_read_only():
    inst = validate([(2, 1), (0, 3)])
    f = Flow((0.0, 1.0), 1.0)
    for obj, attrs in ((inst, ("links", "m", "slopes", "intercepts", "doubled_slopes", "order", "other")),
                       (f, ("values", "mass", "nonzero", "support", "_loads", "other"))):
        for name in attrs:
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(obj, name)
    assert (inst.m, inst.intercepts, f.nonzero) == (2, (1.0, 3.0), (1,))
    # Flow is a frozen dataclass over values, the lazy property, and mass;
    # a replaced flow is built, and checked, anew
    assert [(field.name, field.default) for field in fields(Flow)] == [("values", Flow.__dict__["values"]),
                                                                         ("mass", MISSING)]
    g = replace(f, values=(0.5, 0.5))
    assert (g, g.nonzero) == (Flow((0.5, 0.5), 1.0), (0, 1))
    with pytest.raises(InvalidMass, match="sum to 1.0, declared mass 2.0"):
        replace(f, mass=2.0)


def test_flow_equals_only_flows():
    f = Flow((0.25, 0.75), 1.0)
    assert f.__eq__((f.values, f.mass)) is NotImplemented
    assert (f == (f.values, f.mass)) is False
    # as a record, a flow is its two fields
    profile = Profile(mal=Flow((0.25, 0.0), 0.25), soc=Flow((0.25, 0.5), 0.75), alpha=0.25)
    assert asdict(profile) == {"mal": {"values": (0.25, 0.0), "mass": 0.25},
                               "soc": {"values": (0.25, 0.5), "mass": 0.75}, "alpha": 0.25}


def test_profile_rejects_a_social_mass_off_one_minus_alpha():
    with pytest.raises(InvalidMass, match="social mass"):
        Profile(mal=Flow((0.25, 0.0), 0.25), soc=Flow((0.25, 0.25), 0.5), alpha=0.25)


def test_dumps_and_parse_reject_what_they_cannot_represent():
    with pytest.raises(TypeError, match="cannot serialize object"):
        dumps({"x": object()})
    with pytest.raises(ValueError, match="non-finite"):
        dumps(math.nan)
    # the innermost key around the number, through lists
    with pytest.raises(ValueError, match='^cannot serialize the non-finite number -inf in "soc"$'):
        dumps({"rows": [{"mal": [0.5], "soc": [0.5, -math.inf]}]})
    with pytest.raises(ValidationError, match="'links' must be an array"):
        parse_instance('{"links": 5}')
