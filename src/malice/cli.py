"""Command-line interface: flow solvers, equilibria, reports, verification.

All reports are JSON on stdout (CSV for `sweep --csv`) and echo the
instance hash and the tolerance constants in force.  Identical
invocations produce byte-identical output; anything run-dependent, such
as the wall time of `verify`, goes to stderr.

Exit codes: 0 success, 2 usage or validation error, 3 certificate or
verification failure.
"""

import argparse
import dataclasses
import math
import sys
import time

from .errors import CertificateFailure, ValidationError
from .flows import flow_cost, system_optimum, wardrop_flow
from .game import SweepRow, com_report, com_sweep, pure_equilibrium, scale_strategy, unit_optimum
from .model import (
    CHECK_TOL,
    TOLERANCES,
    Instance,
    dumps,
    emit_instance,
    instance_digest,
    parse_instance,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CERTIFICATE = 3

MAX_ALPHA_POINTS = 100_000  # largest --alphas grid; each point is one equilibrium solve


def _load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_instance(handle.read())


def _report(payload: dict, inst: Instance) -> int:
    """Print payload as JSON, closed by the instance hash and the tolerances."""
    payload["instance_sha256"] = instance_digest(inst)
    payload["tolerances"] = TOLERANCES
    print(dumps(payload))
    return EXIT_OK


def _cmd_solve(args) -> int:
    inst = _load_instance(args.instance)
    mode, solver = ("wardrop", wardrop_flow) if args.wardrop else ("optimum", system_optimum)
    flow, level = solver(inst, args.mass)
    return _report({
        "command": "solve",
        "mode": mode,
        "mass": args.mass,
        "flow": flow.values,
        "level": level.level,
        "support": sorted(level.support),
        "cost": flow_cost(inst, flow),
    }, inst)


def _cmd_equilibrium(args) -> int:
    inst = _load_instance(args.instance)
    profile, certificate = pure_equilibrium(inst, args.alpha)
    return _report({
        "command": "equilibrium",
        "alpha": profile.alpha,
        "mal": profile.mal.values,
        "soc": profile.soc.values,
        "value": certificate.value,
        "mal_residual": certificate.mal_residual,
        "soc_residual": certificate.soc_residual,
    }, inst)


def _cmd_com(args) -> int:
    inst = _load_instance(args.instance)
    return _report({"command": "com", **dataclasses.asdict(com_report(inst, args.alpha))}, inst)


def _cmd_scale(args) -> int:
    inst = _load_instance(args.instance)
    alpha = args.alpha
    result = scale_strategy(inst, alpha)
    _, opt_cost_1, _ = unit_optimum(inst)  # the memo scale_strategy filled
    return _report({
        "command": "scale",
        "alpha": alpha,
        "soc": result.flow.values,
        "value": result.value,
        "upper_bound": (1.0 + alpha / 2.0) * (1.0 - alpha) * opt_cost_1,
    }, inst)


def _cmd_verify(args) -> int:
    from .oracle import GridSpec, minimax_gap  # only verify runs the oracle

    inst = _load_instance(args.instance)
    grid = GridSpec(args.grid)
    started = time.perf_counter()
    gap, (lower, upper) = minimax_gap(inst, args.alpha, grid)
    elapsed = time.perf_counter() - started
    _, certificate = pure_equilibrium(inst, args.alpha)
    contains = lower - CHECK_TOL <= certificate.value <= upper + CHECK_TOL
    ok = gap >= -CHECK_TOL and contains
    points = grid.points(inst.m)
    _report({
        "command": "verify",
        "alpha": args.alpha,
        "grid": args.grid,
        "points": points,
        "soc_mal": upper,
        "mal_soc": lower,
        "gap": gap,
        "equilibrium_value": certificate.value,
        "bracket_contains_value": contains,
        "ok": ok,
    }, inst)
    print(f"verify: {points} grid points per direction in {elapsed:.3f}s", file=sys.stderr)
    return EXIT_OK if ok else EXIT_CERTIFICATE


def _cmd_gen(args) -> int:
    from .families import network, pigou, random_instance, tight  # only gen runs a family

    family = args.family
    if family == "pigou":
        inst = pigou()
    elif family.startswith("tight:"):
        inst = tight(float(family.split(":", 1)[1]))
    elif family.startswith("network:"):
        inst = network(int(family.split(":", 1)[1]))
    elif family == "random":
        inst = random_instance(args.seed, args.m)
    else:
        raise ValidationError(f"unknown family {family!r}")
    document = emit_instance(inst)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(document + "\n")
    print(document)
    return EXIT_OK


def _parse_alpha_grid(text: str) -> list[float]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"alpha grid must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if not all(math.isfinite(v) for v in (start, stop, step)) or step <= 0.0:
            raise ValidationError(f"alpha grid must have a positive finite step, got {text!r}")
        # clamped, so that an overlong grid is rejected before its list is built
        span = min(max((stop - start) / step, -1.0), MAX_ALPHA_POINTS)
        count = int(round(span)) + 1
        if count > MAX_ALPHA_POINTS:
            raise ValidationError(f"alpha grid {text!r} has more than {MAX_ALPHA_POINTS} points")
        values = [start + i * step for i in range(count)]
        values = [v for v in values if v <= stop + 1e-9]
        if not values:
            raise ValidationError(f"alpha grid {text!r} is empty")
        return values
    return [float(text)]


def _cmd_sweep(args) -> int:
    inst = _load_instance(args.instance)
    alphas = _parse_alpha_grid(args.alphas)
    rows = [dataclasses.asdict(row) for row in com_sweep(inst, alphas)]
    if not args.csv:
        return _report({"command": "sweep", "rows": rows}, inst)
    lines = [",".join(field.name for field in dataclasses.fields(SweepRow))]
    lines += [",".join(map(dumps, row.values())) for row in rows]
    text = "\n".join(lines) + "\n"
    if args.csv == "-":
        sys.stdout.write(text)
    else:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(text)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="malice",
        description="Adversarial load balancing on parallel links with linear latencies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--instance", required=True)
    alpha = argparse.ArgumentParser(add_help=False)
    alpha.add_argument("--alpha", type=float, required=True)

    solve = sub.add_parser("solve", parents=[instance],
                           help="Equalized-latency or minimum-cost flow")
    mode = solve.add_mutually_exclusive_group(required=True)
    mode.add_argument("--wardrop", action="store_true", help="equalize latencies")
    mode.add_argument("--optimum", action="store_true", help="minimize total cost")
    solve.add_argument("--mass", type=float, required=True)
    solve.set_defaults(handler=_cmd_solve)

    equilibrium = sub.add_parser("equilibrium", parents=[instance, alpha],
                                 help="Pure equilibrium profile and certificate")
    equilibrium.set_defaults(handler=_cmd_equilibrium)

    com = sub.add_parser("com", parents=[instance, alpha],
                         help="Cost-of-malice report with all bounds")
    com.set_defaults(handler=_cmd_com)

    scale = sub.add_parser("scale", parents=[instance, alpha],
                           help="Scaled-optimum strategy and its value")
    scale.set_defaults(handler=_cmd_scale)

    verify = sub.add_parser("verify", parents=[instance, alpha],
                            help="Brute-force bracket of the game value")
    verify.add_argument("--grid", type=int, required=True)
    verify.set_defaults(handler=_cmd_verify)

    gen = sub.add_parser("gen", help="Write an instance from a named family")
    gen.add_argument("--family", required=True,
                     help="pigou | tight:M | network:m | random")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--m", type=int, default=3)
    gen.add_argument("--out", default=None)
    gen.set_defaults(handler=_cmd_gen)

    sweep = sub.add_parser("sweep", parents=[instance], help="Cost-of-malice sweep over alphas")
    sweep.add_argument("--alphas", required=True, help="start:stop:step or a single value")
    sweep.add_argument("--csv", default=None, help="write CSV to this path ('-' for stdout)")
    sweep.set_defaults(handler=_cmd_sweep)

    return parser


_parser = None  # built by the first run and kept: parsing leaves no state in it


def run(argv=None) -> int:
    """Parse argv, dispatch, and map errors to the exit-code contract."""
    global _parser
    if _parser is None:
        _parser = _build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.handler(args)
    except CertificateFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except (ValidationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def main() -> None:
    sys.exit(run())
