"""Best responses, pure equilibria, and cost-of-malice reports and sweeps.

The zero-sum game: MAL routes mass alpha to maximize SOC's cost, SOC
routes mass 1 - alpha to minimize it.  On linear latencies the game has
a pure equilibrium: MAL plays the selfish (equalized-latency) flow of
its own mass, SOC plays the minimum-cost flow under the induced
latencies, and the two residual checks below certify mutual best
response machine-checkably.

Inputs are checked at the API boundary: each public function checks
its alpha, masses and flow lengths.  `pure_equilibrium` certifies its
profile with the public residuals `check_mal_br` and `check_soc_br`.
`com_report` and `com_sweep` check each alpha once.  Per alpha they call
`pure_equilibrium`, which checks alpha again as a public function, and
`_scaled_optimum`, which gives the entries and value of `scale_strategy`'s
flow without building it or the attack on it.  What a solver's output can fail
is checked on every alpha: each solver flow's entries and sum, both
residuals, and the scaled optimum's expansion.  A flow's entries are a
`{link: load}` dict (see model), so every reader here takes a link it
lacks as 0.0.

The alpha-free part is solved once per instance, in two halves that
`unit_wardrop` and `unit_optimum` solve on first use and keep in the
Instance's memo (see model); `com_report`, `com_sweep`, `scale_strategy`
and `evasive_response` read only the half they need.  An error is never
kept: a half that fails to solve is solved, and fails, again next call.
"""

from dataclasses import dataclass

from .errors import CertificateFailure, DegenerateInstance, InvalidAlpha
from .flows import flow_cost, induced_optimum, system_optimum, wardrop_flow
from .model import (
    CERT_FAIL_TOL,
    CHECK_TOL,
    ComReport,
    EquilibriumCertificate,
    Flow,
    Instance,
    Profile,
    check_alpha,
    check_com_alpha,
    check_links,
    cost,
    profile_cost,
    solver_flow,
    solver_profile,
)


@dataclass(frozen=True)
class BestResponseResult:
    """A strategy and its cost to SOC."""

    flow: Flow
    value: float


def _most_damaging(a, loads: dict, nonzero) -> int:
    """The lowest index maximizing a_k f_k, for the loads and nonzero
    indices of a flow f.

    Only f's nonzero entries can do positive damage; when none does,
    every link ties at zero and link 0 is the lowest index.
    """
    best = 0
    top = 0.0
    for k in nonzero:
        if a[k] * loads[k] > top:
            best, top = k, a[k] * loads[k]
    return best


def _soc_mass(x: Flow) -> float:
    """SOC's share 1 - alpha against adversarial loads x, floored at zero;
    an adversary heavier than the unit total is an invalid alpha."""
    if x.mass > 1.0 + CHECK_TOL:
        raise InvalidAlpha(f"adversarial mass {x.mass} exceeds the unit total")
    return max(1.0 - x.mass, 0.0)


def mal_best_response(inst: Instance, y: Flow, alpha: float) -> BestResponseResult:
    """Adversary's best response to y: all mass on the link maximizing a_k y_k.

    Per unit of adversarial load on link k, SOC's cost rises by a_k y_k,
    and the total cost is sum_k y_k l_k(y_k) + alpha * max_k a_k y_k no
    matter how the mass is spread over the maximizing links.  Ties break
    to the lowest index so results are reproducible.
    """
    alpha = check_alpha(alpha)
    check_links(inst, y)
    x = solver_flow({_most_damaging(inst.slopes, y._loads, y.nonzero): alpha}, inst.m, alpha)
    return BestResponseResult(x, cost(inst, x, y))


def soc_best_response(inst: Instance, x: Flow) -> BestResponseResult:
    """SOC's best response to adversarial loads x of mass alpha.

    This is the minimum-cost flow of mass 1 - alpha under the induced
    latencies l_i(x_i + y).
    """
    y, _ = induced_optimum(inst, x, _soc_mass(x))
    return BestResponseResult(y, cost(inst, x, y))


def check_mal_br(inst: Instance, x: Flow, y: Flow) -> float:
    """Residual of the adversary's best-response condition.

    x is a best response to y iff every loaded link attains
    max_j a_j y_j; the residual is max_j a_j y_j minus the worst loaded
    link's a_i y_i, and zero when x has no support above CHECK_TOL.
    """
    check_links(inst, x, y)
    a = inst.slopes
    xv = x._loads
    yv = y._loads
    loaded = [a[i] * yv.get(i, 0.0) for i in x.nonzero if xv[i] > CHECK_TOL]
    if not loaded:
        return 0.0
    t = _most_damaging(a, yv, y.nonzero)
    return a[t] * yv.get(t, 0.0) - min(loaded)


def check_soc_br(inst: Instance, x: Flow, y: Flow) -> float:
    """Residual of SOC's best-response condition under induced latencies.

    y is optimal iff every loaded link has minimal induced marginal cost
    2 a_i y_i + a_i x_i + b_i; the residual is the worst loaded marginal
    minus the smallest marginal anywhere, floored at zero.  A NaN
    residual stays NaN, so that no certificate passes on it.
    """
    check_links(inst, x, y)
    a = inst.slopes
    b = inst.intercepts
    xv = x._loads
    yv = y._loads
    loaded = [2.0 * a[i] * yv[i] + a[i] * xv.get(i, 0.0) + b[i] for i in y.nonzero if yv[i] > CHECK_TOL]
    if not loaded:
        return 0.0
    low = min(loaded)
    # a marginal is never below its link's intercept, so only links with
    # b_k < low can lower the minimum: a prefix of each part of the
    # intercept order, in which the loaded links' marginals are known
    for part in inst.order:
        for k in part:
            if not b[k] < low:
                break
            yk = yv.get(k, 0.0)
            if yk > CHECK_TOL:
                continue
            # an unloaded link's 2 a_k y_k is 0.0, not the NaN of
            # 2 a_k = inf times 0.0 when a_k > 2**1023
            marginal = (2.0 * a[k] * yk if yk else 0.0) + a[k] * xv.get(k, 0.0) + b[k]
            if marginal < low:
                low = marginal
    residual = max(loaded) - low
    return 0.0 if residual < 0.0 else residual


def pure_equilibrium(inst: Instance, alpha: float) -> tuple[Profile, EquilibriumCertificate]:
    """The pure equilibrium: MAL plays selfishly, SOC best-responds.

    MAL's strategy is the equalized-latency flow of mass alpha, exactly
    what a crowd of infinitesimal selfish agents would produce, so the
    adversary does no more harm than selfish traffic.  SOC's reply is the
    induced-latency optimum.  Both residuals are returned as a
    certificate rather than assumed; the value is recomputed from the
    profile so certificate and value cannot drift apart.  The profile is
    built without Profile's checks: alpha is checked here, and the
    solvers give x the mass alpha and y the mass 1 - alpha.
    """
    alpha = check_alpha(alpha)
    x, _ = wardrop_flow(inst, alpha)
    y, _ = induced_optimum(inst, x, _soc_mass(x))
    value = cost(inst, x, y)
    mal_residual = check_mal_br(inst, x, y)
    soc_residual = check_soc_br(inst, x, y)
    certificate = EquilibriumCertificate(mal_residual, soc_residual, value)
    if not (mal_residual <= CERT_FAIL_TOL and soc_residual <= CERT_FAIL_TOL):  # NaN fails too
        raise CertificateFailure(
            f"equilibrium residuals ({mal_residual}, {soc_residual}) exceed {CERT_FAIL_TOL}"
        )
    return solver_profile(x, y, alpha), certificate


def evasive_response(inst: Instance, x: Flow) -> BestResponseResult:
    """A reply to x that keeps SOC's cost at most (1 - alpha) * nash_cost_1.

    Let s be the unit equalized-latency flow with common latency L.  Skip
    every link the adversary loads to at least s_i; on the rest there is
    room s_i - x_i, and filling it in increasing index order places all of
    SOC's mass (the skipped links freed at least that much room).  Every
    link used stays at total load at most s_i, hence at latency at most L.
    Only s's support has room, so only it is walked.
    """
    check_links(inst, x)
    beta = _soc_mass(x)
    s, _ = unit_wardrop(inst)
    sv = s._loads
    xv = x._loads
    loads = {}
    remaining = beta
    for i in s.nonzero:
        if remaining == 0.0:
            break
        room = sv[i] - xv.get(i, 0.0)
        if room <= 0.0:
            continue
        take = room if room < remaining else remaining
        loads[i] = take
        remaining -= take
        last = i
    if remaining > 0.0 and loads:
        loads[last] += remaining  # float residue; the room slack absorbs it
    y = solver_flow(loads, inst.m, beta)
    return BestResponseResult(y, cost(inst, x, y))


def scale_strategy(inst: Instance, alpha: float) -> BestResponseResult:
    """SOC plays 1 - alpha times the unit minimum-cost flow.

    The returned value is SOC's cost when the adversary best-responds.
    It always stays within (1 + alpha/2) * (1 - alpha) * opt_cost_1.  The
    value is also recomputed through the expansion
        (1-alpha)^2 * opt_cost_1 + alpha * (1-alpha) * (a_t y*_t + sum_k b_k y*_k)
    with t the link maximizing a_k y*_k, and the two must agree; a
    disagreement signals a solver bug.
    """
    alpha = check_alpha(alpha)
    loads, value = _scaled_optimum(inst, alpha, *unit_optimum(inst))
    total = 0.0
    for v in loads.values():
        total += v
    return BestResponseResult(solver_flow(loads, inst.m, total), value)


def _scaled_optimum(inst: Instance, alpha: float, ystar: Flow, opt_cost: float,
                    spread: float) -> tuple[dict, float]:
    """(loads, value): the entries {k: (1 - alpha) y*_k} of scale_strategy's
    flow y and its value, given also the spread that unit_optimum keeps.

    The value is cost(inst, mal_best_response(inst, y, alpha).flow, y),
    with the same floating-point operations in the same order, but on
    y's entries alone: neither y nor the attack is built as a Flow.
    Their checks cannot fail here: the entries are finite and
    nonnegative, and sum, in the dict's order, to the mass that
    scale_strategy declares.
    """
    scale = 1.0 - alpha
    v = ystar._loads
    y = {k: scale * v[k] for k in ystar.nonzero}
    nonzero = [k for k in ystar.nonzero if y[k]]
    t = _most_damaging(inst.slopes, y, nonzero)
    value = profile_cost(inst.links, {t: alpha}, (t,) if alpha else (), y, nonzero)
    expansion = (1.0 - alpha) ** 2 * opt_cost + alpha * (1.0 - alpha) * spread
    if abs(value - expansion) > CERT_FAIL_TOL * max(1.0, abs(value)):
        raise CertificateFailure(
            f"scaled-optimum value {value} disagrees with its expansion {expansion}"
        )
    return y, value


def com_report(inst: Instance, alpha: float) -> ComReport:
    """Assemble the equilibrium value, cost of malice, and all bounds.

    Undefined at alpha = 1 (the ratio divides by the social mass) and on
    instances whose unit optimum cost is zero.
    """
    alpha = check_com_alpha(alpha)
    nash_cost_1, ystar, opt_cost_1, spread = _unit_solves(inst)
    _, certificate = pure_equilibrium(inst, alpha)
    _, scale_value = _scaled_optimum(inst, alpha, ystar, opt_cost_1, spread)
    return ComReport(
        alpha=alpha,
        eq_value=certificate.value,
        nash_cost_1=nash_cost_1,
        opt_cost_1=opt_cost_1,
        com=certificate.value / ((1.0 - alpha) * opt_cost_1),
        bound_43=4.0 / 3.0,
        bound_scale=1.0 + alpha / 2.0,
        scale_value=scale_value,
        evasive_bound=(1.0 - alpha) * nash_cost_1,
    )


def unit_wardrop(inst: Instance) -> tuple[Flow, float]:
    """(s, nash_cost_1): the unit Wardrop flow s and its cost, solved on
    the first call and then read from inst's memo."""
    unit = inst._unit_wardrop
    if unit is None:
        s, _ = wardrop_flow(inst, 1.0)
        unit = s, flow_cost(inst, s)
        object.__setattr__(inst, "_unit_wardrop", unit)
    return unit


def unit_optimum(inst: Instance) -> tuple[Flow, float, float]:
    """(y*, opt_cost_1, spread): the unit optimum y*, its cost and
    a_t y*_t + sum_k b_k y*_k, the alpha-free factor of the scaled
    optimum's expansion (t the link maximizing a_k y*_k), solved on the
    first call and then read from inst's memo."""
    unit = inst._unit_optimum
    if unit is None:
        ystar, _ = system_optimum(inst, 1.0)
        v = ystar._loads
        t = _most_damaging(inst.slopes, v, ystar.nonzero)
        spread = inst.slopes[t] * v.get(t, 0.0)
        spread += sum(inst.intercepts[k] * v[k] for k in ystar.nonzero)
        unit = ystar, flow_cost(inst, ystar), spread
        object.__setattr__(inst, "_unit_optimum", unit)
    return unit


def _unit_solves(inst: Instance) -> tuple[float, Flow, float, float]:
    """The alpha-free part of a report: (nash_cost_1, unit optimum y*,
    opt_cost_1, spread), as unit_optimum gives them; DegenerateInstance,
    on every call, when opt_cost_1 is zero."""
    _, nash_cost_1 = unit_wardrop(inst)
    ystar, opt_cost_1, spread = unit_optimum(inst)
    if opt_cost_1 <= 0.0:
        raise DegenerateInstance("unit optimum cost is zero; cost of malice undefined")
    return nash_cost_1, ystar, opt_cost_1, spread


@dataclass(frozen=True)
class SweepRow:
    """One row of a cost-of-malice sweep over alpha."""

    alpha: float
    eq_value: float
    com: float
    scale_com: float
    bound_43: float
    bound_scale: float


def com_sweep(inst: Instance, alphas) -> list[SweepRow]:
    """Evaluate the cost-of-malice report on a grid of alphas.

    Rows come back sorted by alpha.  The scale_com column divides the
    scaled-optimum value by the same baseline as the equilibrium ratio,
    exposing where the 4/3 and 1 + alpha/2 bounds cross (alpha = 2/3).
    Each row holds the figures com_report gives at its alpha.
    """
    try:
        alphas = iter(alphas)
    except TypeError:
        raise InvalidAlpha(f"alphas must be an iterable of numbers, got {alphas!r}") from None
    rows = []
    unit = None
    for alpha in alphas:
        alpha = check_com_alpha(alpha)
        if unit is None:
            unit = _unit_solves(inst)
        _, ystar, opt_cost_1, spread = unit
        _, certificate = pure_equilibrium(inst, alpha)
        _, scale_value = _scaled_optimum(inst, alpha, ystar, opt_cost_1, spread)
        baseline = (1.0 - alpha) * opt_cost_1
        rows.append(
            SweepRow(
                alpha=alpha,
                eq_value=certificate.value,
                com=certificate.value / baseline,
                scale_com=scale_value / baseline,
                bound_43=4.0 / 3.0,
                bound_scale=1.0 + alpha / 2.0,
            )
        )
    rows.sort(key=lambda row: row.alpha)
    return rows
