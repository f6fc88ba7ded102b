"""Reports and sweeps call every layer that the benchmark's span recorder
times.  The recorder (bench/tracer.py) rebinds each of these functions by
identity in every loaded malice module, so a report that routes around
one leaves its span empty.  These tests rebind them the same way, with
call counters, and require each to be called."""

import random
import sys
from collections import Counter

from malice import com_report, com_sweep, flows, game, model, validate

REPORT_PATH = (
    game.pure_equilibrium,
    flows.wardrop_flow,
    flows.system_optimum,
    flows.induced_optimum,
    flows.waterfill,
    model.cost,
)


def _counting(calls, name, fn):
    def counting(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counting


def _count_report_path(monkeypatch) -> Counter:
    """Count the calls of REPORT_PATH and of Flow.__post_init__, rebinding
    each function wherever a malice module binds it."""
    calls = Counter()
    for fn in REPORT_PATH:
        counting = _counting(calls, fn.__name__, fn)
        for name, module in list(sys.modules.items()):
            if name == "malice" or name.startswith("malice."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, counting)
    post_init = model.Flow.__dict__["__post_init__"]
    monkeypatch.setattr(model.Flow, "__post_init__", _counting(calls, "Flow.__post_init__", post_init))
    return calls


def _links(seed, m):
    rng = random.Random(seed)
    return validate([(rng.uniform(0.1, 10.0), rng.uniform(0.0, 10.0)) for _ in range(m)])


def _assert_every_layer_called(calls):
    expected = {fn.__name__ for fn in REPORT_PATH} | {"Flow.__post_init__"}
    assert {name for name, count in calls.items() if count > 0} == expected


def test_com_report_calls_every_traced_layer(monkeypatch):
    inst = _links(seed=1, m=10_000)
    calls = _count_report_path(monkeypatch)
    com_report(inst, 0.5)
    _assert_every_layer_called(calls)


def test_com_sweep_calls_every_traced_layer(monkeypatch):
    inst = _links(seed=2, m=8)
    calls = _count_report_path(monkeypatch)
    alphas = [0.0, 0.25, 0.5, 0.75]
    com_sweep(inst, alphas)
    _assert_every_layer_called(calls)
    assert calls["pure_equilibrium"] == len(alphas)
