"""The certificates still judge the report path: a corrupted solver reply
makes every entry point that relies on it raise CertificateFailure, and the
CLI exit with status 3."""

import math
import random

import pytest

import malice.game
from malice import (
    CertificateFailure,
    Flow,
    InvalidFlow,
    check_mal_br,
    check_soc_br,
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
from malice.game import _scaled_optimum, unit_optimum

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
        _scaled_optimum(INST, 0.5, ystar, flow_cost(INST, ystar), unit_optimum(INST)[2])
    with pytest.raises(CertificateFailure, match="expansion"):
        scale_strategy(INST, 0.5)
    with pytest.raises(CertificateFailure, match="expansion"):
        com_report(INST, 0.5)


def test_scale_expansion_judges_the_given_optimum_cost():
    ystar, _ = system_optimum(INST, 1.0)
    opt_cost = flow_cost(INST, ystar)
    spread = unit_optimum(INST)[2]
    assert _scaled_optimum(INST, 0.5, ystar, opt_cost, spread)[1] > 0.0
    with pytest.raises(CertificateFailure, match="expansion"):
        _scaled_optimum(INST, 0.5, ystar, 1.01 * opt_cost, spread)


# D18: where a_k > 2**1023, 2 a_k overflows to inf.  The residual scan must
# not read an unloaded link's 2 a_k y_k as inf * 0.0 = NaN, which never
# lowers the smallest marginal, and a NaN residual must fail the certificate
TOP_OF_RANGE = [(6.189197494123352e+307, 2.8455958946280706e+307),
                (1.0393195227402131e+308, 6.364327650675484e+307)]


def test_a_top_of_range_equilibrium_is_not_certified(tmp_path, capsys):
    inst = validate(TOP_OF_RANGE)
    with pytest.raises(CertificateFailure, match="equilibrium residuals"):
        pure_equilibrium(inst, 0.5)
    path = tmp_path / "top.json"
    path.write_text(emit_instance(inst) + "\n")
    assert run(["equilibrium", "--instance", str(path), "--alpha", "0.5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "equilibrium residuals" in captured.err


def test_a_nan_soc_residual_stays_nan():
    # both loaded marginals read inf, and inf - inf is NaN, not a zero residual
    inst = validate([(1.7e308, 0.0), (1.7e308, 0.0)])
    assert math.isnan(check_soc_br(inst, Flow((0.0, 0.0), 0.0), Flow((0.5, 0.5), 1.0)))


def test_top_of_range_certificates_hold_on_the_scaled_instance():
    # scaling every coefficient by 2**-1024 is exact here and leaves the
    # equilibrium as it is, so a certified profile must pass there too
    rng = random.Random(0)
    certified = 0
    for _ in range(1000):
        m = rng.choice((2, 3))
        links = [(rng.uniform(1e307, 1.7e308), rng.uniform(1e307, 1.7e308)) for _ in range(m)]
        try:
            profile, _ = pure_equilibrium(validate(links), 0.5)
        except (CertificateFailure, InvalidFlow):
            continue
        small = validate([(math.ldexp(a, -1024), math.ldexp(b, -1024)) for a, b in links])
        x, y = profile.mal, profile.soc
        assert check_mal_br(small, x, y) <= 1e-6 and check_soc_br(small, x, y) <= 1e-6, links
        certified += 1
    assert certified >= 200
