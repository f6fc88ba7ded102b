"""Every invalid alpha, mass, flow length and input shape through every
public entry point and CLI subcommand that takes it: the exception class,
or the exit code, is part of the contract."""

import re

import pytest

from malice import (
    DimensionMismatch,
    Flow,
    GridSpec,
    GridTooLarge,
    InvalidAlpha,
    InvalidFlow,
    InvalidM,
    InvalidMass,
    InvalidRange,
    NonFiniteCoefficient,
    NonPositiveM,
    Profile,
    ValidationError,
    check_mal_br,
    check_soc_br,
    com_report,
    com_sweep,
    cost,
    emit_instance,
    evasive_response,
    flow_cost,
    induced_optimum,
    mal_best_response,
    mal_soc_value,
    minimax_gap,
    network,
    network_demo,
    pure_equilibrium,
    random_instance,
    scale_strategy,
    simplex_grid,
    soc_best_response,
    soc_mal_value,
    system_optimum,
    tight,
    validate,
    wardrop_flow,
)
from malice.cli import _build_parser, run
from malice.model import SHOWN_COUNT

INST = random_instance(seed=3, m=3)
X = Flow((0.25, 0.25, 0.0), 0.5)        # a valid adversarial flow of mass 0.5
Y = Flow((0.0, 0.25, 0.25), 0.5)        # a valid social flow of mass 0.5
SHORT = Flow((0.25, 0.25), 0.5)         # one entry too few for INST
GRID = GridSpec(4)

TOO_BIG = 10**400                       # an integer too large for a float
HUGE = 10**5000                         # an integer with too many digits to make a string
NOT_NUMBERS = [None, "x"]               # values float() rejects
BAD_ALPHAS = [float("nan"), float("inf"), float("-inf"), -0.1, 1.5, TOO_BIG, -TOO_BIG, *NOT_NUMBERS]
BAD_MASSES = [float("nan"), float("inf"), -1.0, TOO_BIG, -TOO_BIG, *NOT_NUMBERS]
BAD_SLOPE_PARAMETERS = [float("nan"), float("inf"), 0.0, -1.0, TOO_BIG, -TOO_BIG, *NOT_NUMBERS]

# entry points whose alpha must lie in [0, 1]
ALPHA_ENTRIES = {
    "mal_best_response": lambda alpha: mal_best_response(INST, Y, alpha),
    "pure_equilibrium": lambda alpha: pure_equilibrium(INST, alpha),
    "scale_strategy": lambda alpha: scale_strategy(INST, alpha),
    "soc_mal_value": lambda alpha: soc_mal_value(INST, alpha, GRID),
    "mal_soc_value": lambda alpha: mal_soc_value(INST, alpha, GRID),
    "minimax_gap": lambda alpha: minimax_gap(INST, alpha, GRID),
    "Profile": lambda alpha: Profile(X, Y, alpha),
}
# entry points whose alpha must lie in [0, 1): cost of malice divides by 1 - alpha
COM_ALPHA_ENTRIES = {
    "com_report": lambda alpha: com_report(INST, alpha),
    "com_sweep": lambda alpha: com_sweep(INST, [0.5, alpha]),
    "network_demo": lambda alpha: network_demo(3, alpha),
}
MASS_ENTRIES = {
    "wardrop_flow": lambda mass: wardrop_flow(INST, mass),
    "system_optimum": lambda mass: system_optimum(INST, mass),
    "induced_optimum": lambda mass: induced_optimum(INST, X, mass),
    "Flow": lambda mass: Flow((0.0, 0.0, 0.0), mass),
}
SHORT_FLOW_ENTRIES = {
    "cost(x)": lambda: cost(INST, SHORT, Y),
    "cost(y)": lambda: cost(INST, X, SHORT),
    "flow_cost": lambda: flow_cost(INST, SHORT),
    "induced_optimum": lambda: induced_optimum(INST, SHORT, 0.5),
    "mal_best_response": lambda: mal_best_response(INST, SHORT, 0.5),
    "soc_best_response": lambda: soc_best_response(INST, SHORT),
    "check_mal_br(x)": lambda: check_mal_br(INST, SHORT, Y),
    "check_mal_br(y)": lambda: check_mal_br(INST, X, SHORT),
    "check_soc_br(x)": lambda: check_soc_br(INST, SHORT, Y),
    "check_soc_br(y)": lambda: check_soc_br(INST, X, SHORT),
    "Profile": lambda: Profile(SHORT, Flow((0.5, 0.0, 0.0), 0.5), 0.5),
    "evasive_response": lambda: evasive_response(INST, SHORT),
    # here the room loop reaches the missing third entry before any cost is taken
    "evasive_response(room)": lambda: evasive_response(validate([(1, 0)] * 3), Flow((0.3, 0.3), 0.6)),
}
# entry points that take a size: an int, not a bool, at least their minimum;
# (call, error class, message) for each
SIZE_ENTRIES = {
    "GridSpec": (GridSpec, InvalidRange, "grid resolution must be a positive integer"),
    "simplex_grid(n)": (lambda n: next(simplex_grid(n, 3)), InvalidRange,
                        "grid resolution must be a nonnegative integer"),
    "simplex_grid(m)": (lambda m: next(simplex_grid(3, m)), InvalidRange, "link count must be a positive integer"),
    "GridSpec.points": (GRID.points, InvalidRange, "link count must be a positive integer"),
    "network": (network, InvalidM, "link count must be an integer in [1, 1000000]"),
    "random_instance": (lambda m: random_instance(1, m), InvalidM, "link count must be an integer in [1, 1000000]"),
}
BAD_SIZES = [-1, 2.5, True, None, "3", -HUGE]
# a size too large for its cap: (call, error class, message)
HUGE_SIZES = {
    "simplex_grid(n)": (lambda: next(simplex_grid(HUGE, 3)), GridTooLarge,
                        "more than 1e+18 grid points on 3 links at resolution more than 1e+18 exceed the cap"),
    "simplex_grid(m)": (lambda: next(simplex_grid(0, HUGE)), GridTooLarge,
                        "more than 1e+18 grid cells (1 points on more than 1e+18 links at resolution 0)"),
    "GridSpec.points": (lambda: GRID.points(HUGE), GridTooLarge,
                        "more than 1e+18 grid points on more than 1e+18 links at resolution 4 are too many"),
    "network": (lambda: network(HUGE), InvalidM, "in [1, 1000000], got more than 1e+18"),
    "random_instance": (lambda: random_instance(1, HUGE), InvalidM, "in [1, 1000000], got more than 1e+18"),
}
# malformed shapes, not values: (call, error class, what its message names)
BAD_SHAPES = {
    "validate(short link)": (lambda: validate([(1, 0), (1,)]), ValidationError, "link 1 must be a (slope, intercept) pair, got (1,)"),
    "validate(long link)": (lambda: validate([(1, 0, 2)]), ValidationError, "got (1, 0, 2)"),
    "validate(number link)": (lambda: validate([1]), ValidationError, "link 0 must be a (slope, intercept) pair, got 1"),
    "validate(None)": (lambda: validate(None), ValidationError, "iterable of (slope, intercept) pairs, got None"),
    "Flow(None)": (lambda: Flow(None, 0.5), InvalidFlow, "iterable of numbers, got None"),
    "com_sweep(number)": (lambda: com_sweep(INST, 0.5), InvalidAlpha, "iterable of numbers, got 0.5"),
}


def _label(value):
    """value as it reads in a test id; TOO_BIG and HUGE by their size, not their digits."""
    for big, name in ((TOO_BIG, "10**400"), (HUGE, "10**5000")):
        if value in (big, -big):
            return "-" + name if value < 0 else name
    return str(value)


def _table(entries, values):
    return [pytest.param(call, value, id=f"{name}-{_label(value)}")
            for name, call in entries.items() for value in values]


@pytest.mark.parametrize(
    "call, alpha",
    _table(ALPHA_ENTRIES, BAD_ALPHAS) + _table(COM_ALPHA_ENTRIES, BAD_ALPHAS + [1.0]),
)
def test_alpha_out_of_range_is_invalid_alpha(call, alpha):
    with pytest.raises(InvalidAlpha):
        call(alpha)


def test_adversarial_mass_above_one_is_invalid_alpha():
    for reply in (soc_best_response, evasive_response):
        with pytest.raises(InvalidAlpha, match="exceeds the unit total"):
            reply(INST, Flow((1.5, 0.0, 0.0), 1.5))


def test_adversarial_mass_just_above_one_leaves_soc_nothing():
    # within the certificate tolerance of the unit total, SOC's share floors at zero
    x = Flow((1.0 + 1e-10, 0.0, 0.0), 1.0 + 1e-10)
    for reply in (soc_best_response(INST, x), evasive_response(INST, x)):
        assert reply.flow.mass == 0.0


def test_flow_sum_tolerance_is_relative_to_the_mass():
    Flow((0.5, 0.5 + 0.9e-9), 1.0)
    Flow((50.0, 50.0 + 0.9e-7), 100.0)
    with pytest.raises(InvalidMass):
        Flow((0.5, 0.5 + 1.1e-9), 1.0)
    with pytest.raises(InvalidMass):
        Flow((50.0, 50.0 + 1.1e-7), 100.0)


@pytest.mark.parametrize("call, mass", _table(MASS_ENTRIES, BAD_MASSES))
def test_bad_mass_is_invalid_mass(call, mass):
    with pytest.raises(InvalidMass):
        call(mass)


@pytest.mark.parametrize("M", BAD_SLOPE_PARAMETERS, ids=_label)
def test_bad_slope_parameter_is_non_positive_m(M):
    with pytest.raises(NonPositiveM, match="too large for a float" if M in (TOO_BIG, -TOO_BIG) else "positive"):
        tight(M)


@pytest.mark.parametrize("bad", NOT_NUMBERS, ids=str)
def test_non_number_coefficient_is_non_finite_coefficient(bad):
    for link in ((bad, 1), (1, bad)):
        with pytest.raises(NonFiniteCoefficient, match=re.escape(repr(bad))):
            validate([(1, 0), link])


def test_non_number_flow_entry_is_invalid_flow():
    for entry in (None, object(), 1j, "x"):
        with pytest.raises(InvalidFlow, match="is not a number"):
            Flow([0.0, entry], 0.0)


@pytest.mark.parametrize("entry, size", _table(SIZE_ENTRIES, BAD_SIZES))
def test_bad_size_is_its_validation_error(entry, size):
    call, error, rule = entry
    # an oversized int is shown by its bound, not by digits Python will not print
    shown = "less than -1e+18" if size == -HUGE else repr(size)
    with pytest.raises(error, match=re.escape(f"{rule}, got {shown}")) as caught:
        call(size)
    assert caught.type is error


@pytest.mark.parametrize("call, error, names", HUGE_SIZES.values(), ids=HUGE_SIZES.keys())
def test_huge_size_is_its_validation_error(call, error, names):
    with pytest.raises(error, match=re.escape(names)) as caught:
        call()
    assert caught.type is error


# (resolution, how its repr shows it), by name: pytest cannot make an id of HUGE
GRID_REPRS = {
    "1": (1, "1"),
    "100": (100, "100"),
    "SHOWN_COUNT": (SHOWN_COUNT, str(SHOWN_COUNT)),
    "SHOWN_COUNT+1": (SHOWN_COUNT + 1, "more than 1e+18"),
    "HUGE": (HUGE, "more than 1e+18"),
}


@pytest.mark.parametrize("resolution, shown", GRID_REPRS.values(), ids=GRID_REPRS.keys())
def test_grid_spec_repr_shows_a_huge_resolution_by_its_bound(resolution, shown):
    # the dataclass repr up to SHOWN_COUNT; past it, digits Python will not print
    assert repr(GridSpec(resolution)) == str(GridSpec(resolution)) == f"GridSpec(resolution={shown})"


@pytest.mark.parametrize("call, error, names", BAD_SHAPES.values(), ids=BAD_SHAPES.keys())
def test_malformed_shape_is_its_validation_error(call, error, names):
    with pytest.raises(error, match=re.escape(names)) as caught:
        call()
    assert caught.type is error


@pytest.mark.parametrize("call", SHORT_FLOW_ENTRIES.values(), ids=SHORT_FLOW_ENTRIES.keys())
def test_flow_one_entry_short_is_dimension_mismatch(call):
    with pytest.raises(DimensionMismatch):
        call()


def _cli_cases(instance):
    """(argv, exception class) for each bad input on each subcommand taking it."""
    alpha_commands = [["equilibrium"], ["com"], ["scale"], ["verify", "--grid", "4"]]
    cases = []
    for value in ["nan", "inf", "-inf", "-0.1", "1.5"]:
        cases += [([cmd[0], "--instance", instance, f"--alpha={value}", *cmd[1:]], InvalidAlpha)
                  for cmd in alpha_commands]
        cases.append((["sweep", "--instance", instance, f"--alphas={value}"], InvalidAlpha))
    cases.append((["com", "--instance", instance, "--alpha=1"], InvalidAlpha))
    cases.append((["sweep", "--instance", instance, "--alphas=1"], InvalidAlpha))
    for value in ["nan", "inf", "-1"]:
        for mode in ("--wardrop", "--optimum"):
            cases.append((["solve", "--instance", instance, mode, f"--mass={value}"], InvalidMass))
    return cases


def test_cli_rejects_each_bad_input_with_exit_2(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(emit_instance(INST) + "\n")
    cases = _cli_cases(str(path))
    assert len(cases) == 33
    for argv, error in cases:
        args = _build_parser().parse_args(argv)
        with pytest.raises(error):
            args.handler(args)
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == "", argv
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1, argv
