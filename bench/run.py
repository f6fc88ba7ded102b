"""Benchmark of the malice library, one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of large-m, small-m-sweep, oracle, cli (see workloads.py for
what an op is on each and why each is here).  The workload runs as one
client in a closed loop for S seconds, and for at least MIN_OPS ops, so
that ten latency samples lie beyond p90.  Every output is checked.  Run
it from anywhere: the library is imported from the src/ directory next to
this one, and without it the benchmark exits with status 2 and prints no
result.

The report is one line per metric, then one JSON object as the last line
of stdout:

    {"correct": true, "attempted": 412, "failed": 0,
     "metrics": {"op_p50_ms": {"value": 52.1, "unit": "ms"}, ...}}

`failed` counts ops that raised, failed their output check, or (cli) exited
non-zero or printed something unparsable.  `correct` is false when any op
failed.  The workloads' inputs are chosen so that no op fails; the known
defect of the library on wide-range instances is counted instead by the
untimed defect probe of small-m-sweep (see workloads.py), reported as a
line of its own and as bench.d0_fail_ratio, and whose failures leave
`correct` true when they lie in the defect's scope.

--trace 0 reports the end-to-end metrics.  Their times are scaled to the
speed of a reference host (see HostSpeed); the median as measured is
printed beside them.
    ops_per_s    1/s  ops that succeeded per second spent inside ops
    op_p50_ms    ms   median op latency; a failed op counts as slower than any
    op_p90_ms    ms   90th percentile op latency (nearest rank)
    setup_s      s    import of the library plus the median of SETUP_REPS
                      set-ups (instance generation and one warm-up op)
    peak_rss_mb  MB   peak resident set of this process; for cli, of the
                      largest child process

--trace 1 runs the first half of the time untraced and the second half
with the span recorder of tracer.py installed, and reports the per-layer
metrics of PER_LAYER.  A `busy_ms` metric is the time spent in that
function per op, `self_ms` the same minus the traced calls made inside
it; per-layer times are as measured, and bench.host_speed_factor is the
host's slowdown against the reference host while they were measured.  On cli the layers are timed around in-process `malice.cli.run` calls
made after each op, beside subprocesses that time interpreter start and
imports.  trace.overhead_ms is the traced minus the untraced median op
latency.  The spans are written to .bench_run/spans-NAME-seedN.jsonl.
"""

import argparse
import itertools
import json
import math
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, deque
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NAMES = ("large-m", "small-m-sweep", "oracle", "cli")
MIN_OPS = 100
HARD_LIMIT_S = 120.0   # stop even short of MIN_OPS, so a run ends well within 180 s
SETUP_REPS = 7
CAL_WINDOW = 9           # calibration samples in the running median
CAL_REF_NS = 1_200_000    # calibrate()'s time on the reference host, a 2-vCPU x86-64 VM with Python 3.11
_CAL_DATA = tuple(((k * 7919) % 1009) / 7.0 for k in range(3000))

END_TO_END = (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

# name, unit, and how it is computed from the traced run (see per_layer)
PER_LAYER = (
    ("flows.waterfill.calls", "count"),
    ("flows.waterfill.busy_ms", "ms"),
    ("flows.waterfill.per_link_ns", "ns"),
    ("flows.wardrop_flow.busy_ms", "ms"),
    ("flows.system_optimum.busy_ms", "ms"),
    ("flows.induced_optimum.busy_ms", "ms"),
    ("flows.mass_error_max", "mass"),
    ("model.flow_build.busy_ms", "ms"),
    ("model.instance_slopes.busy_us", "us"),
    ("model.cost.busy_ms", "ms"),
    ("model.validate.busy_ms", "ms"),
    ("model.parse_instance.busy_ms", "ms"),
    ("model.dumps.busy_ms", "ms"),
    ("game.pure_equilibrium.busy_ms", "ms"),
    ("game.pure_equilibrium.self_ms", "ms"),
    ("game.scale_strategy.busy_ms", "ms"),
    ("game.scale_strategy.self_ms", "ms"),
    ("game.com_report.busy_ms", "ms"),
    ("game.com_report.self_ms", "ms"),
    ("game.residual_max", "cost"),
    ("families.com_sweep.busy_ms", "ms"),
    ("families.com_sweep.self_ms", "ms"),
    ("families.com_sweep.per_alpha_ms", "ms"),
    ("oracle.simplex_grid.busy_ms", "ms"),
    ("oracle.soc_mal_value.busy_ms", "ms"),
    ("oracle.soc_mal_value.points_per_s", "1/s"),
    ("oracle.mal_soc_value.busy_ms", "ms"),
    ("oracle.mal_soc_value.points_per_s", "1/s"),
    ("oracle.points", "count"),
    ("oracle.bracket_contains_ratio", "ratio"),
    ("oracle.bracket_gap_rel", "ratio"),
    ("cli.interpreter_ms", "ms"),
    ("cli.import_numpy_ms", "ms"),
    ("cli.import_malice_ms", "ms"),
    ("cli.run_ms", "ms"),
    ("bench.fail_ratio", "ratio"),
    ("bench.d0_fail_ratio", "ratio"),
    ("bench.host_speed_factor", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("src.lines", "count"),
)


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_library():
    """Import malice from SRC; return the seconds the import took."""
    if not (SRC / "malice" / "__init__.py").is_file():
        fail(f"no library at {SRC / 'malice'}; run the benchmark inside a checkout of the repository")
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import malice.cli
    elapsed = time.perf_counter() - started
    if Path(malice.__file__).resolve().parent != (SRC / "malice").resolve():
        fail(f"imported malice from {malice.__file__}, not from {SRC}")
    return elapsed


def _compositions(n, parts):
    if parts == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for tail in _compositions(n - head, parts - 1):
            yield (head,) + tail


def calibrate():
    """Fixed pure-Python work that never touches the library: a sort, float
    arithmetic and tuple building, then a recursive generator.  Mixing the
    two tracks the host's slowdowns on every workload better than either."""
    total = 0.0
    rows = []
    for x in sorted(_CAL_DATA):
        total += x * 0.5 + 1.0
        rows.append((x, total))
    best = 0.0
    for comp in _compositions(24, 3):
        value = 0.0
        for k in comp:
            value += k * 0.5 - 1.0 / (k + 1.0)
        if value > best:
            best = value
    return rows, best


class HostSpeed:
    """How slow the host runs right now, relative to the reference host.

    Shared hosts change speed by 20-40 % for seconds at a time, for both
    wall and CPU time, which moves a 25-second median by more than the
    bounds of BENCHMARK.json.  So the benchmark times calibrate() before
    every op and divides the op's time by the running median of the last
    CAL_WINDOW calibration times over CAL_REF_NS: reported times are
    times at the reference host's speed.  Raw wall-clock medians are
    printed beside them.  Where the op runs in a child process (cli), this
    process's reading tracks the child's speed less well than the run's
    median does, so there every op is divided by the median of the
    factors instead.
    """

    def __init__(self):
        self.samples = deque(maxlen=CAL_WINDOW)

    def sample(self):
        started = time.perf_counter_ns()
        calibrate()
        self.samples.append(time.perf_counter_ns() - started)

    def factor(self):
        return statistics.median(self.samples) / CAL_REF_NS


class Phase:
    """Outcome of one timed loop."""

    def __init__(self):
        self.op_ns = []          # every attempted op, failed ones included, at reference speed
        self.raw_ns = []         # the same, as measured
        self.factors = []        # HostSpeed.factor() at each op
        self.ok = []
        self.correct = True
        self.errors = Counter()

    @property
    def attempted(self):
        return len(self.op_ns)

    @property
    def failed(self):
        return self.ok.count(False)

    def percentile_ms(self, q):
        """Nearest-rank percentile in ms.  Failed ops rank above every success;
        a percentile that falls on one reads as the slowest op of the phase."""
        ranked = sorted(ns if ok else math.inf for ns, ok in zip(self.op_ns, self.ok))
        value = ranked[max(0, math.ceil(q * len(ranked)) - 1)]
        return (value if math.isfinite(value) else max(self.op_ns)) / 1e6

    def ops_per_s(self):
        return self.ok.count(True) / (sum(self.op_ns) / 1e9)


def measure(wl, state, index, seconds, min_ops, speed, tracer=None):
    """Run ops until `seconds` have passed and `min_ops` were attempted."""
    phase = Phase()
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        if elapsed >= HARD_LIMIT_S or (elapsed >= seconds and phase.attempted >= min_ops):
            if not wl.in_process and phase.attempted:
                factor = statistics.median(phase.factors)
                phase.op_ns = [ns / factor for ns in phase.raw_ns]
            return phase
        i = next(index)
        inp = wl.next_input(state, i)
        recording = tracer.recording(i) if tracer is not None and wl.in_process else nullcontext()
        error = None
        speed.sample()
        t0 = time.perf_counter_ns()
        try:
            with recording:
                out = wl.op(state, inp)
        except Exception as exc:  # every op failure is counted, never skipped
            error = exc
        t1 = time.perf_counter_ns()
        if error is None:
            try:
                wl.check(state, inp, out)
            except Exception as exc:
                error = exc
        phase.raw_ns.append(t1 - t0)
        phase.factors.append(speed.factor())
        phase.op_ns.append((t1 - t0) / phase.factors[-1])
        phase.ok.append(error is None)
        if error is not None:
            phase.errors[type(error).__name__] += 1
            if phase.correct:
                traceback.print_exception(error, file=sys.stderr)
            phase.correct = False
        if tracer is not None:
            wl.probe(state, i, tracer)


def src_lines():
    return sum(len(path.read_text(encoding="utf-8").splitlines()) for path in sorted(SRC.rglob("*.py")))


def per_layer(tracer, setup_tracer, probe_tracer, probe, wl, state, phases, overhead_ms, base_ms):
    """The PER_LAYER metrics; phases are the untraced and the traced phase.
    The largest residual and mass error include the defect probe's calls."""
    ops = tracer.ops

    def per_op(total):
        return total / ops if ops else 0.0

    def busy_ms(name):
        return per_op(tracer.busy_ns[name]) / 1e6

    def self_ms(name):
        return per_op(tracer.self_ns[name]) / 1e6

    def rate(name):
        busy = tracer.busy_ns[name]
        return tracer.units[name] / (busy / 1e9) if busy else 0.0

    attempted = sum(p.attempted for p in phases)
    waterfill_links = tracer.units["flows.waterfill"]
    values = {
        "flows.waterfill.calls": per_op(tracer.calls["flows.waterfill"]),
        "flows.waterfill.per_link_ns": tracer.busy_ns["flows.waterfill"] / waterfill_links if waterfill_links else 0.0,
        "flows.mass_error_max": max(t.maxima["flows.mass_error_max"] for t in (tracer, probe_tracer)),
        "model.instance_slopes.busy_us": busy_ms("model.instance_slopes") * 1e3,
        "model.validate.busy_ms": setup_tracer.busy_ns["model.validate"] / 1e6,
        "game.residual_max": max(t.maxima["game.residual_max"] for t in (tracer, probe_tracer)),
        "families.com_sweep.per_alpha_ms": (tracer.busy_ns["families.com_sweep"] / tracer.units["families.com_sweep"] / 1e6
                                            if tracer.units["families.com_sweep"] else 0.0),
        "oracle.soc_mal_value.points_per_s": rate("oracle.soc_mal_value"),
        "oracle.mal_soc_value.points_per_s": rate("oracle.mal_soc_value"),
        "oracle.points": per_op(tracer.units["oracle.soc_mal_value"] + tracer.units["oracle.mal_soc_value"]),
        "bench.fail_ratio": sum(p.failed for p in phases) / attempted,
        "bench.d0_fail_ratio": probe.failed / probe.tried if probe else 0.0,
        "bench.host_speed_factor": statistics.median(phases[1].factors),
        "trace.overhead_ms": overhead_ms,
        "trace.overhead_pct": 100.0 * overhead_ms / base_ms,
        "src.lines": src_lines(),
    }
    values.update(wl.layer_metrics(state))
    for name, _ in PER_LAYER:
        if name not in values:
            layer, _, kind = name.rpartition(".")
            values[name] = self_ms(layer) if kind == "self_ms" else busy_ms(layer)
    return {name: values[name] for name, _ in PER_LAYER}


def report(args, phases, probe, metrics, units, notes):
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    errors = sum((p.errors for p in phases), Counter())
    print(f"malice benchmark: workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"  ops attempted {attempted}, failed {failed}, fail_ratio {failed / attempted:.6g}"
          + (f" ({', '.join(f'{k} {v}' for k, v in sorted(errors.items()))})" if errors else ""))
    for line in notes:
        print(f"  {line}")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:.6g} {units[name]}")
    result = {
        "correct": all(p.correct for p in phases) and not (probe and probe.unexpected),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= HARD_LIMIT_S:
        fail(f"--seconds must lie in (0, {HARD_LIMIT_S:g}]")

    import_s = load_library()
    import workloads
    from tracer import Tracer

    speed = HostSpeed()
    for _ in range(CAL_WINDOW):
        speed.sample()
    import_s /= speed.factor()
    wl = workloads.make(args.workload, ROOT)
    setup_s, state = [], None
    try:
        for _ in range(SETUP_REPS):
            if state is not None:
                wl.close(state)
            speed.sample()
            started = time.perf_counter()
            state = wl.setup(args.seed)
            setup_s.append((time.perf_counter() - started) / speed.factor())
        wl.prepare(state)
        index = itertools.count()
        if not args.trace:
            phase = measure(wl, state, index, args.seconds, MIN_OPS, speed)
            who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            metrics = {
                "ops_per_s": phase.ops_per_s(),
                "op_p50_ms": phase.percentile_ms(0.5),
                "op_p90_ms": phase.percentile_ms(0.9),
                "setup_s": import_s + statistics.median(setup_s),
                "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
            }
            probe = wl.defect_probe(args.seed)
            raw_p50 = statistics.median(phase.raw_ns) / 1e6
            notes = wl.notes(state) + ([probe.note()] if probe else []) + [
                f"setup: import and {wl.setup_work}",
                f"as measured, without scaling to reference speed: op p50 {raw_p50:.6g} ms (all ops)",
                f"src_lines {src_lines()}",
            ]
            report(args, [phase], probe, metrics, dict(END_TO_END), notes)
            return 0

        setup_tracer = Tracer()
        setup_tracer.install()
        try:
            with setup_tracer.recording(0):
                wl.close(state)
                state = wl.setup(args.seed)
        finally:
            setup_tracer.uninstall()
        wl.prepare(state)
        plain = measure(wl, state, index, args.seconds / 2, 0, speed)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(wl, state, index, args.seconds / 2, 0, speed, tracer=tracer)
        finally:
            tracer.uninstall()
        probe_tracer = Tracer()
        probe_tracer.install()
        try:
            with probe_tracer.recording(-1):
                probe = wl.defect_probe(args.seed)
        finally:
            probe_tracer.uninstall()
        base_ms = plain.percentile_ms(0.5)
        overhead_ms = traced.percentile_ms(0.5) - base_ms
        metrics = per_layer(tracer, setup_tracer, probe_tracer, probe, wl, state, [plain, traced],
                            overhead_ms, base_ms)
        out_dir = ROOT / ".bench_run"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans_path)
        notes = wl.notes(state) + ([probe.note()] if probe else []) + [
            f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}, "
            f"{tracer.dropped} more counted but not kept"]
        report(args, [plain, traced], probe, metrics, dict(PER_LAYER), notes)
        return 0
    finally:
        if state is not None:
            wl.close(state)


if __name__ == "__main__":
    sys.exit(main())
