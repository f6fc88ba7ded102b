"""Named instance families, random ensembles, and the network demonstrator."""

import math
import random

from .errors import InvalidM, NonPositiveM
from .flows import flow_cost, induced_optimum, system_optimum
from .game import com_sweep  # re-exported, so that families.com_sweep still names the sweep
from .model import Instance, check_com_alpha, cost, solver_flow, validate

MAX_LINKS = 1_000_000  # largest generated instance; bounds the memory a size input can ask for


def pigou() -> Instance:
    """Two links, one constant at latency 1 and one growing as its own load."""
    return validate([(0.0, 1.0), (1.0, 0.0)])


def tight(M: float) -> Instance:
    """Two links with latencies 1 and M*z; stresses the scaled-optimum bound."""
    try:
        M = float(M)
    except OverflowError:
        raise NonPositiveM("slope parameter must be positive, "
                           "got an integer too large for a float") from None
    except (TypeError, ValueError):
        raise NonPositiveM(f"slope parameter must be positive, got {M!r}") from None
    if not math.isfinite(M) or M <= 0.0:
        raise NonPositiveM(f"slope parameter must be positive, got {M}")
    return validate([(0.0, 1.0), (M, 0.0)])


def _check_m(m: int) -> int:
    """A generated instance's link count: an integer, not a bool, in [1, MAX_LINKS]."""
    if isinstance(m, bool) or not isinstance(m, int) or not 1 <= m <= MAX_LINKS:
        raise InvalidM(f"link count must be an integer in [1, {MAX_LINKS}], got {m!r}")
    return m


def network(m: int) -> Instance:
    """m parallel links of latency z: the parallel part of the network demonstrator."""
    return validate([(1.0, 0.0)] * _check_m(m))


NETWORK_DEMO_NOTE = (
    "SOC is restricted to the parallel links; the spanning path sums all "
    "link latencies and is never the better choice for SOC when m >= 2."
)


def network_demo(m: int, alpha: float) -> tuple[float, dict]:
    """Lower bound on cost of malice for m unit-slope links plus a spanning path.

    The adversary rides the extra path that traverses every link, adding
    alpha load to each, and SOC best-responds on the parallel links.  The
    resulting ratio (1 - alpha) + alpha * m grows linearly in m, showing
    the bounded-ratio behavior of pure parallel links does not survive
    even one extra path.  This is a lower bound only; no claim is made
    that the adversary's path strategy is optimal.
    """
    inst = network(m)
    alpha = check_com_alpha(alpha)
    loads = [alpha] * m
    total = 0.0
    for v in loads:
        total += v
    x = solver_flow(loads, range(m), total)
    y, _ = induced_optimum(inst, x, 1.0 - alpha)
    soc_cost = cost(inst, x, y)
    opt_cost_1 = flow_cost(inst, system_optimum(inst, 1.0)[0])
    baseline = (1.0 - alpha) * opt_cost_1
    bound = soc_cost / baseline
    report = {
        "m": m,
        "alpha": alpha,
        "soc_cost": soc_cost,
        "parallel_opt_cost": opt_cost_1,
        "baseline": baseline,
        "com_lower_bound": bound,
        "closed_form": (1.0 - alpha) + alpha * m,
        "note": NETWORK_DEMO_NOTE,
    }
    return bound, report


def random_instance(seed: int, m: int) -> Instance:
    """Deterministic random instance with coefficients in [0, 10]; each is
    exactly zero with probability 0.1 to exercise the zero-slope and
    zero-intercept paths."""
    rng = random.Random(seed)
    links = []
    for _ in range(_check_m(m)):
        a = 0.0 if rng.random() < 0.1 else rng.uniform(0.0, 10.0)
        b = 0.0 if rng.random() < 0.1 else rng.uniform(0.0, 10.0)
        links.append((a, b))
    return validate(links)
