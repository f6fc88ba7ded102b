"""The benchmark's workloads: what one op is, its inputs, and its output check.

Each workload is a single client in a closed loop: the next op starts only
after the previous one has returned and been checked.  Inputs come from a
`random.Random` seeded with the workload name and the --seed argument, so
one seed gives one input stream; the library only ever sees generated
instances.

Every output is checked against the certificates and bounds of the
acceptance suite (tests/test_acceptance.py, criteria 1-3) at the same
tolerances, plus agreement between the op's output and the pointwise
library values.  A check that fails raises CheckFailed.

Workloads, and why each is here:

large-m        com_report on m = 10,000 links.  Sorting, water-filling and
               per-link Flow validation in `flows` and `model` dominate; no
               alpha sweep is involved, so sweep-only changes should leave
               it unchanged.
small-m-sweep  com_sweep over 20 alphas on a fresh standard-range instance
               with 2 to 8 links.  Per-call overhead and the repeated sweep
               dominate.  After the timed ops, an untimed probe sweeps a fixed
               number of seeded wide-range instances (log-uniform 1e-6..1e6),
               which keeps the known `InvalidMass` defect of the water-fill
               visible as an exactly repeating failure count.
oracle         minimax_gap at grid resolution 100 on 3 links (5,151 points
               per direction).  The per-point loop of `mal_soc_value`
               dominates.
cli            one `python -m malice` process per op, cycling through the
               seven subcommands on small instance files.  Interpreter start
               and imports dominate; the only workload where they show.
"""

import contextlib
import dataclasses
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import malice
import malice.cli
from malice import GridSpec, MaliceError, flow_cost, pure_equilibrium, system_optimum, wardrop_flow

from instances import large_links, standard_links, wide_links

RESIDUAL_TOL = 1e-7   # criterion 1: certificate residuals
BOUND_TOL = 1e-9      # criteria 2 and 3: slack on every bound and the bracket
AGREE_TOL = 1e-9      # an op's output against the pointwise library value, relative
SWEEP_ALPHAS = [k * 0.05 for k in range(20)]   # what `sweep --alphas 0:0.95:0.05` evaluates


class CheckFailed(Exception):
    """An op returned an output that fails its certificate, bound or agreement check."""


def require(condition, what):
    if not condition:
        raise CheckFailed(what)


def agree(got, want):
    return abs(got - want) <= AGREE_TOL * max(1.0, abs(want))


def seeded(name, seed):
    return random.Random(f"{name}/{seed}")


class UnitCosts:
    """The alpha-free quantities of criterion 3 for one instance."""

    def __init__(self, inst):
        self.nash_1 = flow_cost(inst, wardrop_flow(inst, 1.0)[0])
        ystar, _ = system_optimum(inst, 1.0)
        self.opt_1 = flow_cost(inst, ystar)
        harm = max(a * v for a, v in zip(inst.slopes, ystar.values))
        spread = harm + sum(b * v for (_, b), v in zip(inst.links, ystar.values))
        require(spread <= 1.5 * self.opt_1 + BOUND_TOL, "criterion 3: a_t y*_t + sum b y* <= 1.5 opt")


def check_certificate(certificate):
    require(certificate.mal_residual <= RESIDUAL_TOL and certificate.soc_residual <= RESIDUAL_TOL,
            f"criterion 1: residuals {certificate.mal_residual}, {certificate.soc_residual}")


def check_equilibrium_value(inst, unit, alpha, eq_value, scale_value):
    """Criteria 1 and 3 for one (instance, alpha) and the op's reported values."""
    _, certificate = pure_equilibrium(inst, alpha)
    check_certificate(certificate)
    require(agree(eq_value, certificate.value), "eq_value differs from the certified value")
    partial_opt = flow_cost(inst, system_optimum(inst, 1.0 - alpha)[0])
    beta = 1.0 - alpha
    require(eq_value <= beta * unit.nash_1 + BOUND_TOL, "criterion 3: eq <= (1-alpha) nash_1")
    require(eq_value <= (4.0 / 3.0) * beta * unit.opt_1 + BOUND_TOL, "criterion 3: eq <= 4/3 (1-alpha) opt_1")
    require(scale_value <= (1.0 + alpha / 2.0) * beta * unit.opt_1 + BOUND_TOL,
            "criterion 3: scale <= (1 + alpha/2)(1-alpha) opt_1")
    require(eq_value <= scale_value + BOUND_TOL, "criterion 3: eq <= scale")
    require(eq_value >= partial_opt - BOUND_TOL, "criterion 3: eq >= opt(1-alpha)")


class Workload:
    """One op type.  Subclasses set `name` and define setup(seed) -> state,
    next_input(state, i) -> input, op(state, input) -> output and
    check(state, input, output), which raises on a wrong output."""

    name = ""
    setup_work = ""       # what setup_s covers besides the imports, for the report
    in_process = True     # whether the op runs in this process: then its calls can be traced,
                          # and the host speed read just before it applies to it (see HostSpeed)

    def prepare(self, state):
        """Untimed preparation of the output checks."""

    def probe(self, state, i, tracer):
        """Extra per-layer measurements made after op i of a traced run."""

    def layer_metrics(self, state):
        """Per-layer metrics this workload measures itself."""
        return {}

    def defect_probe(self, seed):
        """Untimed run over inputs that a known, documented defect makes fail.

        Returns a DefectProbe, or None when the workload has none.
        """
        return None

    def notes(self, state):
        """Extra report lines."""
        return []

    def close(self, state):
        """Release what setup made."""


class LargeM(Workload):
    name = "large-m"
    setup_work = "generate and validate 4 instances of 10,000 links, one warm-up com_report"
    M = 10_000
    INSTANCES = 4

    def setup(self, seed):
        rng = seeded(self.name, seed)
        instances = [malice.validate(large_links(rng, self.M)) for _ in range(self.INSTANCES)]
        malice.com_report(instances[0], 0.5)
        return {"rng": rng, "instances": instances}

    def prepare(self, state):
        state["units"] = [UnitCosts(inst) for inst in state["instances"]]

    def next_input(self, state, i):
        return i % self.INSTANCES, state["rng"].uniform(0.02, 0.98)

    def op(self, state, inp):
        k, alpha = inp
        return malice.com_report(state["instances"][k], alpha)

    def check(self, state, inp, report):
        k, alpha = inp
        inst, unit = state["instances"][k], state["units"][k]
        check_report(inst, unit, alpha, report)


def check_report(inst, unit, alpha, report):
    require(report.alpha == alpha, "report alpha")
    require(agree(report.nash_cost_1, unit.nash_1) and agree(report.opt_cost_1, unit.opt_1),
            "unit costs differ from the solvers")
    require(agree(report.com, report.eq_value / ((1.0 - alpha) * unit.opt_1)), "com ratio")
    require(report.bound_43 == 4.0 / 3.0 and report.bound_scale == 1.0 + alpha / 2.0, "bound constants")
    require(agree(report.evasive_bound, (1.0 - alpha) * unit.nash_1), "evasive bound")
    check_equilibrium_value(inst, unit, alpha, report.eq_value, report.scale_value)


def check_sweep(inst, rows):
    unit = UnitCosts(inst)
    require([row.alpha for row in rows] == SWEEP_ALPHAS, "sweep rows do not follow the alpha grid")
    for row in rows:
        alpha = row.alpha
        baseline = (1.0 - alpha) * unit.opt_1
        require(agree(row.com, row.eq_value / baseline), "com ratio")
        require(row.bound_43 == 4.0 / 3.0 and row.bound_scale == 1.0 + alpha / 2.0, "bound constants")
        check_equilibrium_value(inst, unit, alpha, row.eq_value, row.scale_com * baseline)


class DefectProbe:
    """Outcome of a defect probe: inputs tried, failures by error type, and
    whether every failure lies in the scope of the known defect."""

    def __init__(self, what):
        self.what = what
        self.tried = 0
        self.errors = Counter()
        self.unexpected = False

    @property
    def failed(self):
        return sum(self.errors.values())

    def note(self):
        detail = ", ".join(f"{k} {v}" for k, v in sorted(self.errors.items()))
        return (f"defect probe (untimed): {self.failed} of {self.tried} {self.what} failed"
                + (f" ({detail})" if detail else ""))


class SmallMSweep(Workload):
    name = "small-m-sweep"
    setup_work = "one warm-up com_sweep on a 4-link instance"
    PROBE_SWEEPS = 200

    def setup(self, seed):
        malice.com_sweep(malice.validate(standard_links(seeded(self.name, "warm-up"), 4)), SWEEP_ALPHAS)
        return {"rng": seeded(self.name, seed)}

    def next_input(self, state, i):
        rng = state["rng"]
        return malice.validate(standard_links(rng, rng.randint(2, 8)))

    def op(self, state, inst):
        return malice.com_sweep(inst, SWEEP_ALPHAS)

    def check(self, state, inst, rows):
        check_sweep(inst, rows)

    def defect_probe(self, seed):
        """ROADMAP D0: on wide-range instances the water-fill loses precision,
        so the library rejects its own flows (InvalidMass) or returns values
        that miss the suite's absolute bounds by a few 1e-9.  A fixed number
        of seeded wide-range sweeps, checked like the timed ops, counts them;
        any other kind of failure marks the run incorrect."""
        probe = DefectProbe("wide-range sweeps")
        rng = seeded(self.name, f"{seed}/wide")
        for _ in range(self.PROBE_SWEEPS):
            inst = malice.validate(wide_links(rng, rng.randint(2, 8)))
            probe.tried += 1
            try:
                check_sweep(inst, malice.com_sweep(inst, SWEEP_ALPHAS))
            except Exception as exc:  # every failure is counted, never skipped
                probe.errors[type(exc).__name__] += 1
                probe.unexpected |= not isinstance(exc, (MaliceError, CheckFailed))
        return probe


class Oracle(Workload):
    name = "oracle"
    setup_work = "one warm-up minimax_gap"
    M = 3
    RESOLUTION = 100

    def setup(self, seed):
        rng = seeded(self.name, seed)
        warm = malice.validate(standard_links(seeded(self.name, "warm-up"), self.M))
        malice.minimax_gap(warm, 0.5, GridSpec(self.RESOLUTION))
        return {"rng": rng, "gap_rel": [], "contained": 0, "checked": 0}

    def next_input(self, state, i):
        rng = state["rng"]
        return malice.validate(standard_links(rng, self.M)), rng.uniform(0.05, 0.95)

    def op(self, state, inp):
        inst, alpha = inp
        return malice.minimax_gap(inst, alpha, GridSpec(self.RESOLUTION))

    def check(self, state, inp, result):
        inst, alpha = inp
        gap, (lower, upper) = result
        _, certificate = pure_equilibrium(inst, alpha)
        check_certificate(certificate)
        value = certificate.value
        contained = lower - BOUND_TOL <= value <= upper + BOUND_TOL
        state["checked"] += 1
        state["contained"] += contained
        state["gap_rel"].append((upper - lower) / value)
        require(agree(gap, upper - lower), "gap differs from upper - lower")
        require(gap >= -BOUND_TOL, "criterion 2: negative gap")
        require(contained, "criterion 2: bracket misses the equilibrium value")

    def layer_metrics(self, state):
        checked = state["checked"]
        return {
            "oracle.bracket_contains_ratio": state["contained"] / checked if checked else 0.0,
            "oracle.bracket_gap_rel": statistics.median(state["gap_rel"]) if checked else 0.0,
        }

    def notes(self, state):
        metrics = self.layer_metrics(state)
        return [f"bracket_gap_rel {metrics['oracle.bracket_gap_rel']:.6g} ratio (median (upper - lower) / value), "
                f"bracket contains the equilibrium value on {state['contained']} of {state['checked']} checked ops"]


class Cli(Workload):
    """One subprocess per op.  Children get an absolute PYTHONPATH taken from
    the imported package and run in a directory of their own, so nothing depends
    on the working directory."""

    name = "cli"
    in_process = False
    setup_work = "write 3 instance files, one warm-up process"
    COMMANDS = ("solve", "equilibrium", "com", "scale", "sweep", "verify", "gen")
    SIZES = (2, 3, 4)
    VERIFY_GRID = 30
    CHILD_TIMEOUT_S = 60

    def __init__(self, root):
        self.workdir = root / ".bench_run" / f"cli-{os.getpid()}"

    def setup(self, seed):
        rng = seeded(self.name, seed)
        self.workdir.mkdir(parents=True, exist_ok=True)
        files = []
        for k, m in enumerate(self.SIZES):
            inst = malice.validate(standard_links(rng, m))
            path = self.workdir / f"instance-{k}.json"
            path.write_text(malice.emit_instance(inst) + "\n", encoding="utf-8")
            files.append((path, inst, rng.uniform(0.05, 0.95)))
        package_parent = Path(malice.__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(package_parent), env.get("PYTHONPATH")]))
        state = {"files": files, "env": env, "gen_seed": rng.randrange(1 << 30), "probes": {}}
        self._run(state, self._argv(state, 2))
        return state

    def close(self, state):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _argv(self, state, i):
        command = self.COMMANDS[i % len(self.COMMANDS)]
        path, _, alpha = state["files"][(i // len(self.COMMANDS)) % len(self.SIZES)]
        where, a = ["--instance", str(path)], repr(alpha)
        if command == "solve":
            mode = ["--wardrop", "--mass", "1"] if i % 2 else ["--optimum", "--mass", a]
            return ["solve", *where, *mode]
        if command in ("equilibrium", "com", "scale"):
            return [command, *where, "--alpha", a]
        if command == "sweep":
            return ["sweep", *where, "--alphas", "0:0.95:0.05"]
        if command == "verify":
            return ["verify", *where, "--alpha", a, "--grid", str(self.VERIFY_GRID)]
        return ["gen", "--family", "random", "--seed", str(state["gen_seed"] + i), "--m", "5"]

    def _run(self, state, argv):
        return subprocess.run([sys.executable, "-m", "malice", *argv], env=state["env"], cwd=self.workdir,
                              capture_output=True, timeout=self.CHILD_TIMEOUT_S)

    def next_input(self, state, i):
        return i

    def op(self, state, i):
        return self._run(state, self._argv(state, i))

    def check(self, state, i, child):
        require(child.returncode == 0,
                f"exit {child.returncode}: {child.stderr.decode(errors='replace').strip()}")
        try:
            doc = json.loads(child.stdout)
        except ValueError:
            raise CheckFailed("stdout is not a JSON document") from None
        argv = self._argv(state, i)
        cache = state.setdefault("expected", {})
        if tuple(argv) not in cache:
            cache[tuple(argv)] = self.expected(state, i, argv)
        for key, want in cache[tuple(argv)].items():
            require(key in doc and same(doc[key], want), f"{argv[0]}: field {key!r} differs from the library")

    def expected(self, state, i, argv):
        """The report fields `argv` must print, computed in process by the library."""
        command = argv[0]
        if command == "gen":
            inst = malice.random_instance(state["gen_seed"] + i, 5)
            return {"links": [{"a": a, "b": b} for a, b in inst.links]}
        _, inst, alpha = state["files"][(i // len(self.COMMANDS)) % len(self.SIZES)]
        fields = {"command": command, "instance_sha256": malice.instance_digest(inst),
                  "tolerances": malice.TOLERANCES}
        unit = UnitCosts(inst)
        if command == "solve":
            wardrop = "--wardrop" in argv
            mass = 1.0 if wardrop else alpha
            flow, level = (wardrop_flow if wardrop else system_optimum)(inst, mass)
            fields.update(mode="wardrop" if wardrop else "optimum", mass=mass, flow=list(flow.values),
                          level=level.level, support=sorted(level.support), cost=flow_cost(inst, flow))
        elif command == "equilibrium":
            profile, certificate = pure_equilibrium(inst, alpha)
            check_certificate(certificate)
            fields.update(mal=list(profile.mal.values), soc=list(profile.soc.values), value=certificate.value,
                          mal_residual=certificate.mal_residual, soc_residual=certificate.soc_residual)
        elif command == "com":
            report = malice.com_report(inst, alpha)
            check_report(inst, unit, alpha, report)
            fields.update(dataclasses.asdict(report))
        elif command == "scale":
            result = malice.scale_strategy(inst, alpha)
            bound = (1.0 + alpha / 2.0) * (1.0 - alpha) * unit.opt_1
            require(result.value <= bound + BOUND_TOL, "criterion 3: scale bound")
            fields.update(alpha=alpha, soc=list(result.flow.values), value=result.value, upper_bound=bound)
        elif command == "sweep":
            rows = malice.com_sweep(inst, SWEEP_ALPHAS)
            check_sweep(inst, rows)
            fields["rows"] = [{"alpha": r.alpha, "eq_value": r.eq_value, "com": r.com, "scale_com": r.scale_com,
                               "bound_43": r.bound_43, "bound_scale": r.bound_scale} for r in rows]
        else:
            grid = GridSpec(self.VERIFY_GRID)
            upper = malice.soc_mal_value(inst, alpha, grid)
            lower = malice.mal_soc_value(inst, alpha, grid)
            _, certificate = pure_equilibrium(inst, alpha)
            require(lower - BOUND_TOL <= certificate.value <= upper + BOUND_TOL, "criterion 2: bracket")
            fields.update(alpha=alpha, grid=self.VERIFY_GRID, points=grid.points(inst.m), soc_mal=upper,
                          mal_soc=lower, gap=upper - lower, equilibrium_value=certificate.value,
                          bracket_contains_value=True, ok=True)
        return fields

    def probe(self, state, i, tracer):
        """Split one op's cost into interpreter start, imports and the in-process run."""
        probes = state["probes"]
        for key, code in (("pass", "pass"), ("numpy", "import numpy"), ("malice", "import malice")):
            started = time.perf_counter_ns()
            subprocess.run([sys.executable, "-c", code], env=state["env"], cwd=self.workdir, check=True,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=self.CHILD_TIMEOUT_S)
            probes.setdefault(key, []).append(time.perf_counter_ns() - started)
        argv = self._argv(state, i)
        started = time.perf_counter_ns()
        self._run_in_process(argv)
        probes.setdefault("run", []).append(time.perf_counter_ns() - started)
        with tracer.recording(i):
            self._run_in_process(argv)

    @staticmethod
    def _run_in_process(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return malice.cli.run(argv)

    def layer_metrics(self, state):
        probes = {key: statistics.median(values) / 1e6 for key, values in state["probes"].items()}
        if not probes:
            return {}
        return {
            "cli.interpreter_ms": probes["pass"],
            "cli.import_numpy_ms": probes["numpy"] - probes["pass"],
            "cli.import_malice_ms": probes["malice"] - probes["numpy"],
            "cli.run_ms": probes["run"],
        }


def same(got, want):
    """JSON value equality, with floats compared by agree()."""
    if isinstance(want, bool) or isinstance(want, str) or want is None:
        return got == want
    if isinstance(want, (int, float)):
        return isinstance(got, (int, float)) and not isinstance(got, bool) and agree(float(got), float(want))
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(same(got[k], want[k]) for k in want)
    if isinstance(want, (list, tuple)):
        return isinstance(got, list) and len(got) == len(want) and all(same(g, w) for g, w in zip(got, want))
    return False


def make(name, root):
    if name == "cli":
        return Cli(root)
    return {w.name: w for w in (LargeM, SmallMSweep, Oracle)}[name]()
