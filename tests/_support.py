"""Independent reference implementations, shared ensembles and CLI
subprocess helpers for tests.

Nothing here calls the closed-form solvers it is used to check: the
water-fill reference bisects on the level, and the best-response
references sweep dense grids.  The oracle's references are its
point-by-point forms, which the batched oracle must match exactly.  The
dense references scan every link where the library looks only at the
loaded ones or at a prefix of the cached intercept order; the library
must match them bit for bit.
"""

import itertools
import math
import os
import random
import sys
from collections import Counter
from pathlib import Path

import numpy as np

import malice
from malice import random_instance

BASE_SEED = 20260809


def bisect_waterfill(slopes, intercepts, mass, iters=200):
    """Reference water-fill found by bisection on the common level."""
    m = len(slopes)
    if mass == 0.0:
        return min(intercepts), [0.0] * m
    cap = min((b for a, b in zip(slopes, intercepts) if a == 0.0), default=math.inf)

    def demand(level):
        return sum(
            (level - b) / a
            for a, b in zip(slopes, intercepts)
            if a > 0.0 and b < level
        )

    def fill(level):
        return [
            (level - b) / a if (a > 0.0 and b < level) else 0.0
            for a, b in zip(slopes, intercepts)
        ]

    if cap < math.inf and demand(cap) <= mass:
        values = fill(cap)
        rest = mass - sum(values)
        ties = [i for i in range(m) if slopes[i] == 0.0 and intercepts[i] == cap]
        for i in ties:
            values[i] = rest / len(ties)
        return cap, values
    lo = min(intercepts)
    hi = max(intercepts) + 1.0
    while demand(hi) < mass:
        hi = 2.0 * hi + 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if demand(mid) < mass:
            lo = mid
        else:
            hi = mid
    return hi, fill(hi)


def dense_waterfill(slopes, intercepts, mass, order=None):
    """waterfill's (level, loads), its {link: load} dict spread into a list
    of one float per link, 0.0 at every link the dict does not hold."""
    level, loads = malice.flows.waterfill(slopes, intercepts, mass, order)
    return level, dense(loads, len(slopes))


def dense(loads, m):
    """A {link: load} dict as a list of m floats, 0.0 where it holds none."""
    values = [0.0] * m
    for i, v in loads.items():
        values[i] = v
    return values


def bits(value):
    """value with every float, however nested in lists and tuples, as its
    hex form, so that == compares floats bit for bit (signed zeros too)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    return value


def sorting_waterfill(slopes, intercepts, mass):
    """The water-fill kernel with no cached order: it sorts the positive-slope
    links itself and scans all m links for the cap, the loaded set and the
    tied zero-slope links."""
    m = len(slopes)
    values = [0.0] * m
    if mass == 0.0:
        return min(intercepts), values
    cap = math.inf
    for a, b in zip(slopes, intercepts):
        if a == 0.0 and b < cap:
            cap = b
    order = sorted((i for i in range(m) if slopes[i] > 0.0), key=lambda i: intercepts[i])
    inv_sum = 0.0
    off_sum = 0.0
    k = 0
    while k < len(order):
        t = intercepts[order[k]]
        if inv_sum > 0.0 and inv_sum * t - off_sum >= mass:
            break
        while k < len(order) and intercepts[order[k]] == t:
            i = order[k]
            inv_sum += 1.0 / slopes[i]
            off_sum += intercepts[i] / slopes[i]
            k += 1
    level = math.inf if inv_sum == 0.0 else (mass + off_sum) / inv_sum
    if level <= cap:
        loaded = [i for i in order if intercepts[i] < level]
        if len(loaded) == 1:
            values[loaded[0]] = mass
        else:
            for i in loaded:
                values[i] = (level - intercepts[i]) / slopes[i]
        return level, values
    placed = 0.0
    for i in order:
        if intercepts[i] < cap:
            v = (cap - intercepts[i]) / slopes[i]
            values[i] = v
            placed += v
    rest = max(mass - placed, 0.0)
    ties = [i for i in range(m) if slopes[i] == 0.0 and intercepts[i] == cap]
    for i in ties:
        values[i] = rest / len(ties)
    return cap, values


def dense_induced_optimum(inst, x, beta):
    """(level, loads) of induced_optimum, from all m shifted intercepts."""
    doubled = tuple(2.0 * a for a in inst.slopes)
    shifted = tuple(a * xi + b for (a, b), xi in zip(inst.links, x.values))
    return sorting_waterfill(doubled, shifted, beta)


def dense_cost(inst, x, y):
    """model.cost summed over all m links in index order."""
    total = 0.0
    for (a, b), xi, yi in zip(inst.links, x.values, y.values):
        total += yi * (a * (xi + yi) + b)
    return total


def dense_flow_cost(inst, f):
    """flows.flow_cost summed over all m links in index order."""
    total = 0.0
    for (a, b), v in zip(inst.links, f.values):
        total += v * (a * v + b)
    return total


def dense_most_damaging(inst, values):
    """game._most_damaging from the damage of all m links."""
    damage = [a * v for a, v in zip(inst.slopes, values)]
    return damage.index(max(damage))


def dense_check_mal_br(inst, x, y):
    """game.check_mal_br from the damage of all m links."""
    damage = [a * yi for a, yi in zip(inst.slopes, y.values)]
    loaded = [damage[i] for i in range(inst.m) if x.values[i] > malice.model.CHECK_TOL]
    return max(damage) - min(loaded) if loaded else 0.0


def dense_check_soc_br(inst, x, y):
    """game.check_soc_br from the marginal costs of all m links."""
    marginal = [2.0 * a * yi + a * xi + b for (a, b), xi, yi in zip(inst.links, x.values, y.values)]
    loaded = [marginal[i] for i in range(inst.m) if y.values[i] > malice.model.CHECK_TOL]
    if not loaded:
        return 0.0
    residual = max(loaded) - min(marginal)
    return residual if residual > 0.0 else 0.0


def wide_ensemble(count, seed=0):
    """Seeded instances of ROADMAP D0's wide range: 2 to 8 links, slopes and
    intercepts log-uniform in [1e-6, 1e6]."""
    rng = random.Random(seed)
    return [
        malice.validate([(10.0 ** rng.uniform(-6, 6), 10.0 ** rng.uniform(-6, 6))
                         for _ in range(rng.randint(2, 8))])
        for _ in range(count)
    ]


def random_sparse_flow(rng: random.Random, m, mass, k):
    """A flow of the given mass on k random links (all m when k >= m), as a Flow."""
    values = [0.0] * m
    links = rng.sample(range(m), min(k, m))
    draws = [rng.random() + 1e-3 for _ in links]
    for i, d in zip(links, draws):
        values[i] = mass * d / sum(draws)
    total = 0.0
    for v in values:
        total += v
    return malice.Flow(tuple(values), total)


def reference_cost(links, values):
    """Total cost of a single flow, computed from raw pairs."""
    return sum(v * (a * v + b) for (a, b), v in zip(links, values))


def reference_profile_cost(links, x, y):
    """SOC's cost at a raw (x, y) profile."""
    return sum(yi * (a * (xi + yi) + b) for (a, b), xi, yi in zip(links, x, y))


def grid_best_soc_value(links, x, beta, steps=2000):
    """Dense 1-D sweep of SOC's split between two links; returns the min cost."""
    assert len(links) == 2
    best = math.inf
    for k in range(steps + 1):
        y2 = beta * k / steps
        y = (beta - y2, y2)
        best = min(best, reference_profile_cost(links, x, y))
    return best


def grid_best_mal_value(links, y, alpha, steps=2000):
    """Dense 1-D sweep of the adversary's split between two links; returns the max cost."""
    assert len(links) == 2
    best = -math.inf
    for k in range(steps + 1):
        x2 = alpha * k / steps
        x = (alpha - x2, x2)
        best = max(best, reference_profile_cost(links, x, y))
    return best


def standard_ensemble(count, max_m=8):
    """Seeded (instance, alpha) pairs: m <= max_m, coefficients in [0, 10]
    with occasional exact zeros, alpha strictly inside (0, 1)."""
    items = []
    for k in range(count):
        rng = random.Random(BASE_SEED + k)
        m = rng.randint(1, max_m)
        inst = random_instance(seed=BASE_SEED * 1000 + k, m=m)
        alpha = min(max(rng.random(), 1e-9), 1.0 - 1e-9)
        items.append((inst, alpha))
    return items


def oracle_ensemble(count):
    """Seeded (instance, alpha) pairs with m in {2, 3}, small enough to grid."""
    items = []
    for k in range(count):
        rng = random.Random(BASE_SEED + 7919 * (k + 1))
        m = 2 + k % 2
        inst = random_instance(seed=BASE_SEED * 2000 + k, m=m)
        alpha = min(max(rng.random(), 1e-9), 1.0 - 1e-9)
        items.append((inst, alpha))
    return items


def random_feasible(rng: np.random.Generator, count, m, mass):
    """count random flows of the given mass on the m-link simplex."""
    draws = rng.exponential(size=(count, m))
    return mass * draws / draws.sum(axis=1, keepdims=True)


def child_env():
    """Environment for a `python -m malice` child process.

    PYTHONPATH starts with the directory holding the `malice` package this
    process imported, so the child runs the same code whatever its working
    directory, whether the package comes from `src/` or an installed copy.
    """
    package_parent = Path(malice.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(package_parent), env.get("PYTHONPATH")]))
    return env


def describe_child(proc):
    """Return code, argv and stderr of a finished child, for assertion messages."""
    stderr = proc.stderr.decode(errors="replace").strip()
    return f"exit {proc.returncode} from {proc.args}:\n{stderr}"


def random_simplex_point(rng: random.Random, m, mass):
    """One random flow of the given mass, as a tuple."""
    draws = [-math.log(1.0 - rng.random()) for _ in range(m)]
    total = sum(draws)
    return tuple(mass * d / total for d in draws)


def count_calls(monkeypatch, *functions) -> Counter:
    """Count the calls of each function for one test, keyed by its
    __name__.  Each is rebound wherever a malice module binds it, by
    identity, as the benchmark's span recorder (bench/tracer.py) rebinds
    it, so a caller that reaches it by another path is not counted."""
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for fn in functions:
        wrapper = counting(fn.__name__, fn)
        for name, module in list(sys.modules.items()):
            if name == "malice" or name.startswith("malice."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, wrapper)
    return calls


def reference_simplex_grid(n, m):
    """The compositions of n into m nonnegative parts, lexicographically: the
    differences of the partial sums 0 <= c_1 <= ... <= c_{m-1} <= n, padded by
    0 before and n after, which itertools yields in lexicographic order."""
    for sums in itertools.combinations_with_replacement(range(n + 1), m - 1):
        bounds = (0, *sums, n)
        yield tuple(hi - lo for lo, hi in zip(bounds, bounds[1:]))


def reference_mal_soc_value(inst, alpha, n):
    """The oracle's lower bound point by point: one scalar water-fill per
    gridded adversarial strategy, SOC's cost summed link by link."""
    m = inst.m
    a = inst.slopes
    b = inst.intercepts
    doubled = tuple(2.0 * ai for ai in a)
    beta = 1.0 - alpha
    fractions = [k / n for k in range(n + 1)]
    best = -math.inf
    for comp in reference_simplex_grid(n, m):
        x = [alpha * fractions[k] for k in comp]
        shifted = [a[i] * x[i] + b[i] for i in range(m)]
        _, y = dense_waterfill(doubled, shifted, beta)
        value = 0.0
        for i in range(m):
            yi = y[i]
            if yi != 0.0:
                value += yi * (a[i] * (x[i] + yi) + b[i])
        if value > best:
            best = value
    return best


def reference_soc_mal_value(inst, alpha, n):
    """The oracle's upper bound point by point: the adversary's whole mass on
    the first link that maximizes a_k y_k, and SOC's cost summed link by link
    in index order before that link's term is swapped for the attacked one."""
    a = inst.slopes
    b = inst.intercepts
    beta = 1.0 - alpha
    fractions = [k / n for k in range(n + 1)]
    best = math.inf
    for comp in reference_simplex_grid(n, inst.m):
        y = [beta * fractions[k] for k in comp]
        damage = [yi * ai for yi, ai in zip(y, a)]
        t = damage.index(max(damage))
        per_link = [yi * (di + bi) for yi, di, bi in zip(y, damage, b)]
        total = 0.0
        for term in per_link:
            total += term
        yt = y[t]
        value = total - per_link[t] + yt * (a[t] * (alpha + yt) + b[t])
        if value < best:
            best = value
    return best
