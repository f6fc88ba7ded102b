import json
import random
import subprocess
import sys
from collections import Counter

import pytest

import malice.cli
import malice.flows
from malice import emit_instance, instance_digest, pigou, random_instance, tight, validate
from malice.cli import _build_parser, run

from _support import BASE_SEED, child_env, count_calls, describe_child


@pytest.fixture
def pigou_file(tmp_path):
    path = tmp_path / "pigou.json"
    path.write_text(emit_instance(pigou()) + "\n")
    return str(path)


@pytest.fixture
def tight_file(tmp_path):
    path = tmp_path / "tight.json"
    path.write_text(emit_instance(tight(1000)) + "\n")
    return str(path)


def _run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_solve_wardrop_pigou(pigou_file, capsys):
    code, doc = _run_json(capsys, ["solve", "--instance", pigou_file, "--wardrop", "--mass", "1"])
    assert code == 0
    assert doc["flow"] == [0, 1]
    assert doc["level"] == 1
    assert doc["cost"] == 1
    assert doc["instance_sha256"] == instance_digest(pigou())
    assert doc["tolerances"]["certificate"] == 1e-9


def test_solve_optimum_pigou(pigou_file, capsys):
    code, doc = _run_json(capsys, ["solve", "--instance", pigou_file, "--optimum", "--mass", "1"])
    assert code == 0
    assert doc["flow"] == [0.5, 0.5]
    assert doc["cost"] == 0.75


def test_solve_requires_exactly_one_mode(pigou_file):
    with pytest.raises(SystemExit) as excinfo:
        run(["solve", "--instance", pigou_file, "--mass", "1"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        run(["solve", "--instance", pigou_file, "--wardrop", "--optimum", "--mass", "1"])
    assert excinfo.value.code == 2


def test_equilibrium_pigou(pigou_file, capsys):
    code, doc = _run_json(capsys, ["equilibrium", "--instance", pigou_file, "--alpha", "0.5"])
    assert code == 0
    assert doc["alpha"] == 0.5
    assert doc["mal"] == [0, 0.5]
    assert doc["soc"] == [0.25, 0.25]
    assert doc["value"] == 0.4375
    assert doc["mal_residual"] <= 1e-9
    assert doc["soc_residual"] <= 1e-9


def test_com_tight(tight_file, capsys):
    code, doc = _run_json(capsys, ["com", "--instance", tight_file, "--alpha", "0.5"])
    assert code == 0
    assert doc["com"] == pytest.approx(4000 / 3999, abs=1e-9)
    assert doc["bound_scale"] == 1.25
    assert doc["eq_value"] <= doc["evasive_bound"] + 1e-9


def test_com_rejects_alpha_one(pigou_file, capsys):
    assert run(["com", "--instance", pigou_file, "--alpha", "1.0"]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_file_is_exit_2(capsys):
    assert run(["com", "--instance", "/nonexistent.json", "--alpha", "0.5"]) == 2


def test_malformed_instance_is_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"links": []}')
    assert run(["solve", "--instance", str(path), "--wardrop", "--mass", "1"]) == 2


def test_a_cost_that_overflows_names_its_key(tmp_path, capsys):
    # 1e308 on two sloped links: the loads are finite, their cost is not
    path = tmp_path / "inst.json"
    path.write_text(emit_instance(validate([(1, 0), (2, 1)])) + "\n")
    argv = ["solve", "--instance", str(path), "--optimum", "--mass", "1e308"]
    args = _build_parser().parse_args(argv)
    with pytest.raises(ValueError, match='^cannot serialize the non-finite number inf in "cost"$'):
        args.handler(args)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == 'error: cannot serialize the non-finite number inf in "cost"\n'


def test_scale_report(pigou_file, capsys):
    code, doc = _run_json(capsys, ["scale", "--instance", pigou_file, "--alpha", "0.5"])
    assert code == 0
    assert doc["value"] <= doc["upper_bound"] + 1e-9
    assert doc["soc"] == [0.25, 0.25]


def test_scale_solves_unit_optimum_once(tight_file, capsys, monkeypatch):
    calls = count_calls(monkeypatch, malice.flows.waterfill)
    assert run(["scale", "--instance", tight_file, "--alpha", "0.3"]) == 0
    assert calls["waterfill"] == 1


def test_scale_rejects_alpha_before_solving(pigou_file, capsys, monkeypatch):
    calls = count_calls(monkeypatch, malice.flows.waterfill)
    assert run(["scale", "--instance", pigou_file, "--alpha", "1.5"]) == 2
    assert "alpha must lie in [0, 1]" in capsys.readouterr().err
    assert calls["waterfill"] == 0


def test_verify_pigou(pigou_file, capsys):
    code = run(["verify", "--instance", pigou_file, "--alpha", "0.5", "--grid", "50"])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["ok"] is True
    assert doc["gap"] <= 0.05
    assert doc["points"] == 51
    assert doc["bracket_contains_value"] is True
    assert "points per direction" in captured.err


def test_verify_brackets_a_game_whose_grid_costs_overflow(tmp_path, capsys):
    # some grid points would cost 0 * inf, which is NaN, if the empty huge link were charged
    path = tmp_path / "huge.json"
    path.write_text('{"links": [{"a": 0, "b": 1}, {"a": 1.5e308, "b": 1.5e308}]}\n')
    code = run(["verify", "--instance", str(path), "--alpha", "0.5", "--grid", "10"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    doc = json.loads(captured.out)
    assert doc["mal_soc"] <= 0.5 <= doc["soc_mal"]
    assert doc["equilibrium_value"] == 0.5
    assert doc["bracket_contains_value"] is True and doc["ok"] is True
    assert "Warning" not in captured.err


def test_an_underflowing_baseline_is_exit_2(tmp_path, capsys):
    # (1 - alpha) times the unit optimum's cost of 5e-324 rounds to 0.0
    path = tmp_path / "tiny.json"
    path.write_text(emit_instance(validate([(0, 5e-324), (1e9, 1e-300)])) + "\n")
    for argv in (["com", "--alpha", "0.5"], ["sweep", "--alphas", "0:0.5:0.5"]):
        assert run([argv[0], "--instance", str(path), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cost of malice undefined" in captured.err


def test_scale_charges_no_empty_link(tmp_path, capsys):
    # MAL attacks link 0, whose latency overflows, but the scaled optimum
    # leaves it empty: it adds nothing to the value, not 0 * inf
    path = tmp_path / "huge.json"
    path.write_text(emit_instance(validate([(1e308, 1e308), (0, 0)])) + "\n")
    code, doc = _run_json(capsys, ["scale", "--instance", str(path), "--alpha", "0.9"])
    assert code == 0
    assert doc["value"] == 0.0 and doc["soc"] == [0, 0.09999999999999998]


# coefficients from zero through subnormals, tiny and huge normals to the
# largest float, where costs, levels and ratios underflow or overflow
EDGE_COEFFICIENTS = [0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 1e-17, 0.5, 1.0, 1e9, 1e300,
                     8.98846567431158e307, 1.7976931348623157e308]
EDGE_ALPHAS = ["0", "1e-12", "0.5", "0.999999", "1"]


def test_seeded_edge_instances_exit_0_2_or_3(tmp_path, capsys):
    rng = random.Random(BASE_SEED + 27)
    codes = Counter()
    for k in range(120):
        path = tmp_path / f"edge{k}.json"
        links = [(rng.choice(EDGE_COEFFICIENTS), rng.choice(EDGE_COEFFICIENTS)) for _ in range(rng.randint(1, 4))]
        path.write_text(json.dumps({"links": [{"a": a, "b": b} for a, b in links]}) + "\n")
        for command in ("solve", "equilibrium", "com", "scale", "verify", "sweep"):
            alpha = rng.choice(EDGE_ALPHAS)
            argv = [command, "--instance", str(path)]
            if command == "solve":
                argv += [rng.choice(["--wardrop", "--optimum"]), "--mass", alpha]
            elif command == "sweep":
                argv += ["--alphas", alpha]
            else:
                argv += ["--alpha", alpha]
            if command == "verify":
                argv += ["--grid", str(rng.randint(1, 20))]
            code = run(argv)  # an escaped exception fails the test, a RuntimeWarning too
            capsys.readouterr()
            assert code in (0, 2, 3), (links, argv)
            codes[code] += 1
    assert codes[0] > 200 and codes[2] > 200, codes


def test_verify_failure_is_exit_3(pigou_file, capsys, monkeypatch):
    monkeypatch.setattr("malice.oracle.soc_mal_value", lambda *args, **kwargs: -1.0)
    code = run(["verify", "--instance", pigou_file, "--alpha", "0.5", "--grid", "10"])
    assert code == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False


def test_gen_pigou(capsys):
    code = run(["gen", "--family", "pigou"])
    assert code == 0
    assert capsys.readouterr().out.strip() == emit_instance(pigou())


def test_gen_tight_writes_file(tmp_path, capsys):
    out = tmp_path / "inst.json"
    code = run(["gen", "--family", "tight:10", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert out.read_text() == stdout
    assert stdout.strip() == emit_instance(tight(10))


def test_gen_network(capsys):
    code = run(["gen", "--family", "network:4"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["links"] == [{"a": 1, "b": 0}] * 4


def test_gen_random_deterministic(capsys):
    run(["gen", "--family", "random", "--seed", "9", "--m", "5"])
    first = capsys.readouterr().out
    run(["gen", "--family", "random", "--seed", "9", "--m", "5"])
    assert capsys.readouterr().out == first
    assert first.strip() == emit_instance(random_instance(seed=9, m=5))


def test_gen_unknown_family(capsys):
    assert run(["gen", "--family", "mystery"]) == 2


def test_gen_caps_link_count(capsys):
    assert run(["gen", "--family", "network:1000001"]) == 2
    assert run(["gen", "--family", "random", "--m", "1000001"]) == 2
    assert capsys.readouterr().out == ""


def test_gen_random_rejects_zero_links(capsys):
    assert run(["gen", "--family", "random", "--m", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: link count must be an integer in [1, 1000000], got 0\n"


def test_sweep_json(pigou_file, capsys):
    code, doc = _run_json(capsys, ["sweep", "--instance", pigou_file, "--alphas", "0:0.9:0.3"])
    assert code == 0
    alphas = [row["alpha"] for row in doc["rows"]]
    assert alphas == sorted(alphas)
    assert len(alphas) == 4
    assert doc["rows"][0]["com"] == 1


def test_sweep_csv(pigou_file, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = run(["sweep", "--instance", pigou_file, "--alphas", "0:0.95:0.05", "--csv", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,eq_value,com,scale_com,bound_43,bound_scale"
    assert len(lines) == 21
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[2]) == 1.0


def test_sweep_csv_stdout(pigou_file, capsys):
    code = run(["sweep", "--instance", pigou_file, "--alphas", "0.5", "--csv", "-"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("alpha,eq_value,com")
    assert len(out.splitlines()) == 2


def test_sweep_csv_matches_json_rows(tight_file, capsys):
    argv = ["sweep", "--instance", tight_file, "--alphas", "0:0.9:0.15"]
    _, doc = _run_json(capsys, argv)
    assert run(argv + ["--csv", "-"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split(",") == list(doc["rows"][0])
    assert [[float(v) for v in line.split(",")] for line in lines] == \
        [list(row.values()) for row in doc["rows"]]


def test_sweep_bad_grid_spec(pigou_file, capsys):
    assert run(["sweep", "--instance", pigou_file, "--alphas", "0:1", "--csv", "-"]) == 2
    assert run(["sweep", "--instance", pigou_file, "--alphas", "0:0.9:-0.1"]) == 2
    # 100,001 points, one above the cap
    assert run(["sweep", "--instance", pigou_file, "--alphas", "0:0.99:9.9e-6"]) == 2
    assert run(["sweep", "--instance", pigou_file, "--alphas", "0:0.99:1e-320"]) == 2
    assert run(["sweep", "--instance", pigou_file, "--alphas", "0.9:0:0.1"]) == 2


def test_every_json_report_echoes_hash_and_tolerances(pigou_file, capsys):
    digest = instance_digest(pigou())
    for argv in (
        ["solve", "--instance", pigou_file, "--optimum", "--mass", "0.5"],
        ["equilibrium", "--instance", pigou_file, "--alpha", "0.25"],
        ["com", "--instance", pigou_file, "--alpha", "0.25"],
        ["scale", "--instance", pigou_file, "--alpha", "0.25"],
        ["verify", "--instance", pigou_file, "--alpha", "0.25", "--grid", "20"],
        ["sweep", "--instance", pigou_file, "--alphas", "0.25"],
    ):
        code, doc = _run_json(capsys, argv)
        assert code == 0
        assert doc["instance_sha256"] == digest
        assert doc["tolerances"]["residual_target"] == 1e-7


def _cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "malice", *args],
        capture_output=True,
        cwd=cwd,
        env=child_env(),
    )


def test_subprocess_reports_are_byte_identical(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(emit_instance(tight(1000)) + "\n")
    for args in (
        ["solve", "--instance", str(path), "--wardrop", "--mass", "0.7"],
        ["equilibrium", "--instance", str(path), "--alpha", "0.3"],
        ["com", "--instance", str(path), "--alpha", "0.3"],
        ["verify", "--instance", str(path), "--alpha", "0.3", "--grid", "40"],
    ):
        first = _cli(args, tmp_path)
        second = _cli(args, tmp_path)
        assert first.returncode == 0, describe_child(first)
        assert second.returncode == 0, describe_child(second)
        assert first.stdout == second.stdout
        assert first.stdout  # nonempty report


def test_subnormal_slope_is_exit_2(tmp_path):
    path = tmp_path / "subnormal.json"
    path.write_text('{"links": [{"a": 5e-324, "b": 1.0}]}\n')
    for args in (
        ["solve", "--instance", str(path), "--wardrop", "--mass", "1"],
        ["com", "--instance", str(path), "--alpha", "0.5"],
        ["verify", "--instance", str(path), "--alpha", "0.5", "--grid", "10"],
    ):
        proc = _cli(args, tmp_path)
        assert proc.returncode == 2, describe_child(proc)
        assert proc.stdout == b""
        assert b"subnormal slope" in proc.stderr, describe_child(proc)
        assert b"Traceback" not in proc.stderr


def test_non_finite_report_number_is_exit_2(tmp_path):
    # the doubled slope overflows, so the optimum's level is infinite,
    # which has no JSON form
    path = tmp_path / "huge.json"
    path.write_text('{"links": [{"a": 1e308, "b": 0}]}\n')
    proc = _cli(["solve", "--instance", str(path), "--optimum", "--mass", "1"], tmp_path)
    assert proc.returncode == 2, describe_child(proc)
    assert proc.stdout == b""
    assert b"Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1, describe_child(proc)


def test_oversized_inputs_are_exit_2(tmp_path):
    # a coefficient too large for a float, a document too deep for the JSON
    # parser, a one-link grid of one point at a resolution past the cap, and
    # a grid of 40,000 points on 40,000 links, past the cell cap
    huge = tmp_path / "huge.json"
    huge.write_text('{"links": [{"a": 1' + "0" * 400 + ', "b": 0}]}\n')
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000 + "\n")
    one = tmp_path / "one.json"
    one.write_text('{"links": [{"a": 1, "b": 0}]}\n')
    wide = tmp_path / "wide.json"
    wide.write_text('{"links": [' + ", ".join(['{"a": 1, "b": 0}'] * 40_000) + "]}\n")
    for args in (
        ["solve", "--instance", str(huge), "--wardrop", "--mass", "1"],
        ["solve", "--instance", str(deep), "--wardrop", "--mass", "1"],
        ["verify", "--instance", str(one), "--alpha", "0.5", "--grid", str(10**20)],
        ["verify", "--instance", str(wide), "--alpha", "0.5", "--grid", "1"],
    ):
        proc = _cli(args, tmp_path)
        assert proc.returncode == 2, describe_child(proc)
        assert proc.stdout == b""
        assert b"Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1, describe_child(proc)


def test_no_subcommand_but_verify_imports_numpy(tmp_path, pigou_file):
    # numpy is imported inside the oracle functions that need it, so that
    # `import malice` and every other subcommand start without its cost
    commands = [
        ["gen", "--family", "pigou"],
        ["solve", "--instance", pigou_file, "--wardrop", "--mass", "1"],
        ["equilibrium", "--instance", pigou_file, "--alpha", "0.5"],
        ["com", "--instance", pigou_file, "--alpha", "0.5"],
        ["scale", "--instance", pigou_file, "--alpha", "0.5"],
        ["sweep", "--instance", pigou_file, "--alphas", "0:0.5:0.25"],
    ]
    probe = f"""
import runpy, sys
import malice
loaded = ["import malice"] if "numpy" in sys.modules else []
for argv in {commands!r}:
    sys.argv = ["malice", *argv]
    try:
        runpy.run_module("malice", run_name="__main__")
    except SystemExit as exc:
        if exc.code != 0:
            raise
    if "numpy" in sys.modules and not loaded:
        loaded.append(argv[0])
sys.exit("numpy loaded by " + loaded[0] if loaded else 0)
"""
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, cwd=tmp_path, env=child_env())
    assert proc.returncode == 0, describe_child(proc)
    assert b'"links"' in proc.stdout


def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path, pigou_file):
    # oracle and families load on first use, so that only verify pays for
    # the oracle and only gen for the families; verify walks a grid with
    # seeds in Python floats, and only a grid without them loads numpy
    unused = {"malice.oracle", "malice.families", "numpy"}
    for args in (
        ["solve", "--instance", pigou_file, "--wardrop", "--mass", "1"],
        ["equilibrium", "--instance", pigou_file, "--alpha", "0.5"],
        ["com", "--instance", pigou_file, "--alpha", "0.5"],
        ["scale", "--instance", pigou_file, "--alpha", "0.5"],
        ["sweep", "--instance", pigou_file, "--alphas", "0:0.5:0.25"],
        ["gen", "--family", "random", "--seed", "3", "--m", "4"],
        ["verify", "--instance", pigou_file, "--alpha", "0.5", "--grid", "10"],
        # two points, fewer than the three seeds of two links
        ["verify", "--instance", pigou_file, "--alpha", "0.5", "--grid", "1"],
    ):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "malice", *args],
                              capture_output=True, cwd=tmp_path, env=child_env())
        assert proc.returncode == 0, describe_child(proc)
        lines = proc.stderr.decode().splitlines()
        loaded = {line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")} & unused
        if args[0] == "gen":
            assert loaded == {"malice.families"}
        elif args[0] == "verify":
            assert loaded == ({"malice.oracle", "numpy"} if args[-1] == "1" else {"malice.oracle"}), args
            doc = json.loads(proc.stdout)
            assert doc["bracket_contains_value"] is True and doc["ok"] is True
        else:
            assert loaded == set(), args


def test_run_builds_its_parser_once(pigou_file, capsys, monkeypatch):
    monkeypatch.setattr(malice.cli, "_parser", None)
    calls = count_calls(monkeypatch, malice.cli._build_parser)
    argv = ["com", "--instance", pigou_file, "--alpha", "0.5"]
    outputs = []
    for _ in range(2):
        assert run(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert calls["_build_parser"] == 1
    assert outputs[0] == outputs[1] and outputs[0].startswith('{\n  "command": "com"')
