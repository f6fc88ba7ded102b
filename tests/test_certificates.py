"""The certificates still judge the report path: a corrupted solver reply
makes every entry point that relies on it raise CertificateFailure, and the
CLI exit with status 3."""

import pytest

import malice.game
from malice import (
    CertificateFailure,
    Flow,
    com_report,
    com_sweep,
    emit_instance,
    flow_cost,
    pure_equilibrium,
    scale_strategy,
    system_optimum,
    validate,
)
from malice.cli import run
from malice.game import _scaled_value, unit_optimum

INST = validate([(1.0, 0.0), (2.0, 1.0), (3.0, 0.5)])  # every slope positive


def _shift_load(flow):
    """flow with half of its first loaded link's load moved to the next link."""
    values = list(flow.values)
    k = flow.nonzero[0]
    moved = values[k] / 2.0
    values[k] -= moved
    values[(k + 1) % len(values)] += moved
    return Flow(tuple(values), flow.mass)


@pytest.fixture
def corrupt_soc_reply(monkeypatch):
    """SOC's induced optimum, as the game layer sees it, off its optimum."""
    original = malice.game.induced_optimum

    def corrupted(inst, x, beta):
        y, level = original(inst, x, beta)
        return _shift_load(y), level

    monkeypatch.setattr(malice.game, "induced_optimum", corrupted)


@pytest.fixture
def corrupt_scaled_value(monkeypatch):
    """SOC's cost, as the game layer computes it, 1 % too high, so that the
    scaled optimum's value misses its expansion."""
    original = malice.game.profile_cost
    monkeypatch.setattr(malice.game, "profile_cost", lambda *flows: 1.01 * original(*flows))


@pytest.fixture
def inst_file(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(emit_instance(INST) + "\n")
    return str(path)


def test_corrupt_soc_reply_fails_the_equilibrium_certificate(corrupt_soc_reply):
    with pytest.raises(CertificateFailure, match="equilibrium residuals"):
        pure_equilibrium(INST, 0.5)
    with pytest.raises(CertificateFailure, match="equilibrium residuals"):
        com_report(INST, 0.5)
    with pytest.raises(CertificateFailure, match="equilibrium residuals"):
        com_sweep(INST, [0.25, 0.5])


def test_corrupt_soc_reply_is_cli_exit_3(corrupt_soc_reply, inst_file, capsys):
    for argv in (["com", "--instance", inst_file, "--alpha", "0.5"],
                 ["sweep", "--instance", inst_file, "--alphas", "0:0.5:0.25"]):
        assert run(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "equilibrium residuals" in captured.err


def test_wrong_scale_expansion_fails(corrupt_scaled_value):
    ystar, _ = system_optimum(INST, 1.0)
    with pytest.raises(CertificateFailure, match="expansion"):
        _scaled_value(INST, 0.5, ystar, flow_cost(INST, ystar), unit_optimum(INST)[2])
    with pytest.raises(CertificateFailure, match="expansion"):
        scale_strategy(INST, 0.5)
    with pytest.raises(CertificateFailure, match="expansion"):
        com_report(INST, 0.5)


def test_scale_expansion_judges_the_given_optimum_cost():
    ystar, _ = system_optimum(INST, 1.0)
    opt_cost = flow_cost(INST, ystar)
    spread = unit_optimum(INST)[2]
    assert _scaled_value(INST, 0.5, ystar, opt_cost, spread) > 0.0
    with pytest.raises(CertificateFailure, match="expansion"):
        _scaled_value(INST, 0.5, ystar, 1.01 * opt_cost, spread)
