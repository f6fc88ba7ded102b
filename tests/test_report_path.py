"""Reports, sweeps and the CLI call every layer that the benchmark's span
recorder times.  The recorder (bench/tracer.py) rebinds each of these
functions by identity in every loaded malice module, so a caller that
routes around one leaves its span empty.  These tests rebind them the
same way, with call counters, and require each to be called."""

import random

import pytest

from malice import com_report, com_sweep, emit_instance, flows, game, model, validate
from malice.cli import run

from _support import count_calls

REPORT_PATH = (
    game.pure_equilibrium,
    flows.wardrop_flow,
    flows.system_optimum,
    flows.induced_optimum,
    flows.waterfill,
    model.cost,
)


def _count_report_path(monkeypatch):
    """Count the calls of REPORT_PATH and of Flow.__post_init__."""
    calls = count_calls(monkeypatch, *REPORT_PATH)
    post_init = model.Flow.__dict__["__post_init__"]

    def counting(flow):
        calls["Flow.__post_init__"] += 1
        post_init(flow)

    monkeypatch.setattr(model.Flow, "__post_init__", counting)
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


def _recording(flows, read_first):
    """Flow.__post_init__, keeping each flow it builds; with read_first it
    reads flow.values before the check, as the benchmark's recorder does."""
    post_init = model.Flow.__dict__["__post_init__"]

    def recording(flow):
        if read_first:
            flow.values
        post_init(flow)
        flows.append(flow)

    return recording


def test_reading_values_before_the_check_changes_nothing(monkeypatch):
    # the recorder reads each flow's values before Flow.__post_init__ runs,
    # which builds a solver flow's tuple from its dict before the check
    cases = [(com_report, _links(seed=1, m=10_000), 0.5), (com_sweep, _links(seed=2, m=8), [0.0, 0.25, 0.5, 0.75])]
    for run, inst, alphas in cases:
        expected = run(inst, alphas)
        built = {}
        for read_first in (False, True):
            flows = built[read_first] = []
            with monkeypatch.context() as patch:
                patch.setattr(model.Flow, "__post_init__", _recording(flows, read_first))
                assert run(inst, alphas) == expected
        assert built[False] and len(built[False]) == len(built[True])
        for plain, read in zip(built[False], built[True]):
            assert (read.nonzero, read.mass) == (plain.nonzero, plain.mass)
            assert read.values == plain.values


# every subcommand that reads an instance file and prints a report
CLI_REPORTS = {
    "solve": ["--wardrop", "--mass", "1"],
    "equilibrium": ["--alpha", "0.3"],
    "com": ["--alpha", "0.3"],
    "scale": ["--alpha", "0.3"],
    "verify": ["--alpha", "0.3", "--grid", "4"],
    "sweep": ["--alphas", "0:0.5:0.25"],
}


@pytest.mark.parametrize("command", CLI_REPORTS)
def test_cli_report_parses_and_serialises_through_traced_names(command, tmp_path, monkeypatch, capsys):
    path = tmp_path / "inst.json"
    path.write_text(emit_instance(_links(seed=3, m=3)) + "\n")
    calls = count_calls(monkeypatch, model.parse_instance, model.dumps, model.emit_instance)
    assert run([command, "--instance", str(path), *CLI_REPORTS[command]]) == 0
    assert capsys.readouterr().out
    assert calls["parse_instance"] >= 1
    # the instance hash serialises the instance through model's own dumps
    # (one call per emit_instance), so only a call beyond those is the report's
    assert calls["dumps"] > calls["emit_instance"] >= 1
