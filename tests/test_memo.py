"""The memo of an instance's alpha-free unit solves: the unit Wardrop flow
with nash_cost_1 and the unit optimum with opt_cost_1, solved on first use
and then read.  Calls on a warm instance give what they give on a fresh
equal one, bit for bit and error for error; no error is kept; each half
is filled on its own; and the memo is invisible to ==, hash, repr,
pickles and copies."""

import copy
import pickle
import sys
import threading

import pytest

from malice import (
    DegenerateInstance,
    Flow,
    InvalidMass,
    com_report,
    com_sweep,
    evasive_response,
    flows,
    game,
    scale_strategy,
    validate,
    wardrop_flow,
)

from _support import bits, count_calls, standard_ensemble, wide_ensemble

ALPHAS = (0.0, 0.3, 0.7, 1.0 - 1e-9)


def _outcome(call):
    """call()'s result with every float as its hex form, or its error's class and message."""
    try:
        result = call()
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc).__name__, str(exc)
    return bits(_plain(result))


def _plain(value):
    """Reports, sweep rows, replies and flows as nested tuples of their fields."""
    if isinstance(value, list):
        return [_plain(v) for v in value]
    if isinstance(value, Flow):  # a dataclass too, whose fields omit nonzero
        return value.values, value.mass, value.nonzero
    if hasattr(value, "__dataclass_fields__"):
        return tuple(_plain(getattr(value, name)) for name in value.__dataclass_fields__)
    return value


def _calls(inst, target):
    """(name, call) for every reader of the memo at several alphas, each
    call made on the instance that target() returns, equal to inst."""
    calls = [("com_sweep", lambda: com_sweep(target(), [0.9, 0.0, 0.5]))]
    for alpha in ALPHAS:
        calls.append((f"com_report {alpha}", lambda alpha=alpha: com_report(target(), alpha)))
        calls.append((f"scale_strategy {alpha}", lambda alpha=alpha: scale_strategy(target(), alpha)))
        try:
            x, _ = wardrop_flow(inst, alpha)
        except InvalidMass:  # D0's precision defect
            continue
        calls.append((f"evasive_response {alpha}", lambda x=x: evasive_response(target(), x)))
    return calls


def test_calls_on_a_warm_instance_equal_calls_on_a_fresh_one():
    instances = [inst for inst, _ in standard_ensemble(60)] + wide_ensemble(60, seed=3)
    errors = 0
    for inst in instances:
        # each call on a fresh equal instance, whose memo it fills itself
        expected = {name: _outcome(call) for name, call in _calls(inst, lambda: validate(inst.links))}
        for _ in range(3):  # the first pass fills inst's memo, the others read it
            for name, call in _calls(inst, lambda: inst):
                assert _outcome(call) == expected[name], (inst, name)
        errors += sum(outcome[0] in ("InvalidMass", "DegenerateInstance") for outcome in expected.values())
    assert errors > 0  # the wide range includes D0's failing solves


def test_a_warm_report_water_fills_twice(monkeypatch):
    inst = validate([(1.0 + k % 7, (k * 37 % 101) / 10.0) for k in range(2_000)])
    calls = count_calls(monkeypatch, flows.waterfill, flows.wardrop_flow, flows.system_optimum,
                        flows.induced_optimum, game.cost)
    first = com_report(inst, 0.4)
    assert calls["waterfill"] == 4 and calls["system_optimum"] == 1
    calls.clear()
    assert com_report(inst, 0.4) == first
    # the equilibrium's own solves and cost still run, through the traced names
    assert calls["waterfill"] == 2 and calls["system_optimum"] == 0
    assert calls["wardrop_flow"] == 1 and calls["induced_optimum"] == 1 and calls["cost"] >= 1
    calls.clear()
    com_report(inst, 0.6)
    scale_strategy(inst, 0.6)
    evasive_response(inst, wardrop_flow(inst, 0.6)[0])
    assert calls["waterfill"] == 3 and calls["system_optimum"] == 0


def test_each_half_runs_only_its_own_solver(monkeypatch):
    calls = count_calls(monkeypatch, flows.wardrop_flow, flows.system_optimum)
    x, _ = flows.wardrop_flow(validate([(1, 0), (2, 1)]), 0.5)
    calls.clear()
    evasive_response(validate([(1, 0), (2, 1)]), x)
    assert calls == {"wardrop_flow": 1}
    calls.clear()
    scale_strategy(validate([(1, 0), (2, 1)]), 0.5)
    assert calls == {"system_optimum": 1}


def test_a_failed_fill_is_not_kept(monkeypatch):
    inst = validate([(1, 0), (2, 1), (0, 3)])
    expected = _outcome(lambda: scale_strategy(validate(inst.links), 0.5))
    solve = game.system_optimum
    failures = []

    def failing_once(*args):
        if not failures:
            failures.append(args)
            raise InvalidMass("injected")
        return solve(*args)

    monkeypatch.setattr(game, "system_optimum", failing_once)
    with pytest.raises(InvalidMass, match="injected"):
        scale_strategy(inst, 0.5)
    assert _outcome(lambda: scale_strategy(inst, 0.5)) == expected


def test_d0_instance_raises_invalid_mass_on_every_call():
    inst = validate([(1e-17, 1.0)])
    x, _ = wardrop_flow(validate([(1.0, 0.0)]), 0.5)  # a valid one-link flow
    replies = [lambda: com_report(inst, 0.5), lambda: com_sweep(inst, [0.5]),
               lambda: scale_strategy(inst, 0.5), lambda: evasive_response(inst, x)]
    for _ in range(3):
        for reply in replies:
            with pytest.raises(InvalidMass, match="flow entries sum to 0.0, declared mass 1.0"):
                reply()


def test_zero_unit_optimum_is_degenerate_on_every_report():
    inst = validate([(0, 0), (0, 0)])
    for _ in range(3):
        with pytest.raises(DegenerateInstance):
            com_report(inst, 0.5)
        with pytest.raises(DegenerateInstance):
            com_sweep(inst, [0.25, 0.5])
        # the same unit optimum serves the scaled strategy, which is defined
        result = scale_strategy(inst, 0.5)
        assert result.value == 0.0 and result.flow.mass == 0.5


def test_the_memo_is_invisible_to_equality_hash_repr_pickles_and_copies():
    inst = validate([(1, 0), (2, 1), (0, 3)])
    before = (pickle.dumps(inst), repr(inst), hash(inst), copy.copy(inst), copy.deepcopy(inst))
    com_report(inst, 0.5)
    evasive_response(inst, wardrop_flow(inst, 0.5)[0])
    assert inst._unit_wardrop is not None and inst._unit_optimum is not None
    after = (pickle.dumps(inst), repr(inst), hash(inst), copy.copy(inst), copy.deepcopy(inst))
    assert after == before and inst == validate(inst.links)
    for clone in (pickle.loads(after[0]), *after[3:]):
        assert clone == inst and clone._unit_wardrop is None and clone._unit_optimum is None


def test_threads_filling_one_memo_at_once_agree():
    # more threads than cores, switching often, all on one cold instance
    links = [(1.0 + k % 5, (k * 13 % 29) / 3.0) for k in range(500)]
    expected = [_outcome(lambda: com_report(validate(links), alpha)) for alpha in ALPHAS]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            inst = validate(links)
            outcomes = []

            def report():
                outcomes.append([_outcome(lambda: com_report(inst, alpha)) for alpha in ALPHAS])

            threads = [threading.Thread(target=report) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert outcomes == [expected] * len(threads)
    finally:
        sys.setswitchinterval(interval)
