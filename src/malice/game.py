"""Best responses, pure equilibria, and cost-of-malice reports and sweeps.

The zero-sum game: MAL routes mass alpha to maximize SOC's cost, SOC
routes mass 1 - alpha to minimize it.  On linear latencies the game has
a pure equilibrium: MAL plays the selfish (equalized-latency) flow of
its own mass, SOC plays the minimum-cost flow under the induced
latencies, and the two residual checks below certify mutual best
response machine-checkably.

Inputs are checked at the API boundary: each public function checks
its alpha, masses and flow lengths, then calls an unchecked core
(`_attack`, `_mal_residual`, `_soc_residual`, `_scaled`).
`scaled_optimum` takes an alpha its caller checked.  `com_report` and
`com_sweep` check each alpha once and solve the instance's alpha-free
part once (`_unit_solves`).  Per alpha they call `pure_equilibrium`,
which checks alpha again as a public function, and the cores.  What a
solver's output can fail is checked on every alpha: each solver flow's
entries and sum, both residuals, and the scaled optimum's expansion.
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
    solver_flow,
)


@dataclass(frozen=True)
class BestResponseResult:
    """A strategy and its cost to SOC."""

    flow: Flow
    value: float


def _most_damaging(inst: Instance, f: Flow) -> int:
    """The lowest index maximizing a_k f_k.

    Only f's nonzero entries can do positive damage; when none does,
    every link ties at zero and link 0 is the lowest index.
    """
    a = inst.slopes
    v = f._loads
    best = 0
    top = 0.0
    for k in f.nonzero:
        if a[k] * v[k] > top:
            best, top = k, a[k] * v[k]
    return best


def _soc_mass(x: Flow) -> float:
    """SOC's share 1 - alpha against adversarial loads x, floored at zero;
    an adversary heavier than the unit total is an invalid alpha."""
    if x.mass > 1.0 + CHECK_TOL:
        raise InvalidAlpha(f"adversarial mass {x.mass} exceeds the unit total")
    return max(1.0 - x.mass, 0.0)


def _attack(inst: Instance, y: Flow, alpha: float) -> Flow:
    """mal_best_response's flow at a checked alpha: all of it on _most_damaging(y)."""
    best = _most_damaging(inst, y)
    values = [0.0] * inst.m
    values[best] = alpha
    return solver_flow(values, (best,), alpha)


def mal_best_response(inst: Instance, y: Flow, alpha: float) -> BestResponseResult:
    """Adversary's best response to y: all mass on the link maximizing a_k y_k.

    Per unit of adversarial load on link k, SOC's cost rises by a_k y_k,
    and the total cost is sum_k y_k l_k(y_k) + alpha * max_k a_k y_k no
    matter how the mass is spread over the maximizing links.  Ties break
    to the lowest index so results are reproducible.
    """
    alpha = check_alpha(alpha)
    check_links(inst, y)
    x = _attack(inst, y, alpha)
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
    return _mal_residual(inst, x, y)


def _mal_residual(inst: Instance, x: Flow, y: Flow) -> float:
    """check_mal_br on flows of inst's length."""
    a = inst.slopes
    xv = x._loads
    yv = y._loads
    loaded = [a[i] * yv[i] for i in x.nonzero if xv[i] > CHECK_TOL]
    if not loaded:
        return 0.0
    t = _most_damaging(inst, y)
    return a[t] * yv[t] - min(loaded)


def check_soc_br(inst: Instance, x: Flow, y: Flow) -> float:
    """Residual of SOC's best-response condition under induced latencies.

    y is optimal iff every loaded link has minimal induced marginal cost
    2 a_i y_i + a_i x_i + b_i; the residual is the worst loaded marginal
    minus the smallest marginal anywhere, floored at zero.
    """
    check_links(inst, x, y)
    return _soc_residual(inst, x, y)


def _soc_residual(inst: Instance, x: Flow, y: Flow) -> float:
    """check_soc_br on flows of inst's length."""
    a = inst.slopes
    b = inst.intercepts
    xv = x._loads
    yv = y._loads
    loaded = [2.0 * a[i] * yv[i] + a[i] * xv[i] + b[i] for i in y.nonzero if yv[i] > CHECK_TOL]
    if not loaded:
        return 0.0
    low = min(loaded)
    # a marginal is never below its link's intercept, so only links with
    # b_k < low can lower the minimum: a prefix of each part of the
    # intercept order
    for part in inst.order:
        for k in part:
            if not b[k] < low:
                break
            marginal = 2.0 * a[k] * yv[k] + a[k] * xv[k] + b[k]
            if marginal < low:
                low = marginal
    residual = max(loaded) - low
    return residual if residual > 0.0 else 0.0


def pure_equilibrium(inst: Instance, alpha: float) -> tuple[Profile, EquilibriumCertificate]:
    """The pure equilibrium: MAL plays selfishly, SOC best-responds.

    MAL's strategy is the equalized-latency flow of mass alpha, exactly
    what a crowd of infinitesimal selfish agents would produce, so the
    adversary does no more harm than selfish traffic.  SOC's reply is the
    induced-latency optimum.  Both residuals are returned as a
    certificate rather than assumed; the value is recomputed from the
    profile so certificate and value cannot drift apart.
    """
    alpha = check_alpha(alpha)
    x, _ = wardrop_flow(inst, alpha)
    y, _ = induced_optimum(inst, x, _soc_mass(x))
    value = cost(inst, x, y)
    mal_residual = _mal_residual(inst, x, y)
    soc_residual = _soc_residual(inst, x, y)
    certificate = EquilibriumCertificate(mal_residual, soc_residual, value)
    if mal_residual > CERT_FAIL_TOL or soc_residual > CERT_FAIL_TOL:
        raise CertificateFailure(
            f"equilibrium residuals ({mal_residual}, {soc_residual}) exceed {CERT_FAIL_TOL}"
        )
    return Profile(mal=x, soc=y, alpha=alpha), certificate


def evasive_response(inst: Instance, x: Flow) -> BestResponseResult:
    """A reply to x that keeps SOC's cost at most (1 - alpha) * nash_cost_1.

    Let s be the unit equalized-latency flow with common latency L.  Skip
    every link the adversary loads to at least s_i; on the rest there is
    room s_i - x_i, and filling it in increasing index order places all of
    SOC's mass (the skipped links freed at least that much room).  Every
    link used stays at total load at most s_i, hence at latency at most L.
    """
    check_links(inst, x)
    beta = _soc_mass(x)
    s, _ = wardrop_flow(inst, 1.0)
    sv = s._loads
    xv = x._loads
    values = [0.0] * inst.m
    links = []
    remaining = beta
    for i in range(inst.m):
        if remaining == 0.0:
            break
        room = sv[i] - xv[i]
        if room <= 0.0:
            continue
        take = room if room < remaining else remaining
        values[i] = take
        remaining -= take
        links.append(i)
    if remaining > 0.0 and links:
        values[links[-1]] += remaining  # float residue; the room slack absorbs it
    y = solver_flow(values, links, beta)
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
    ystar, _ = system_optimum(inst, 1.0)
    return scaled_optimum(inst, alpha, ystar, flow_cost(inst, ystar))


def scaled_optimum(inst: Instance, alpha: float, ystar: Flow,
                   opt_cost: float) -> BestResponseResult:
    """scale_strategy at a checked alpha, given the unit optimum
    ystar = system_optimum(inst, 1.0) and its cost opt_cost."""
    return BestResponseResult(*_scaled(inst, alpha, ystar, opt_cost, _spread(inst, ystar)))


def _spread(inst: Instance, ystar: Flow) -> float:
    """a_t y*_t + sum_k b_k y*_k, the alpha-free factor of the expansion."""
    v = ystar._loads
    t = _most_damaging(inst, ystar)
    spread = inst.slopes[t] * v[t]
    spread += sum(inst.intercepts[k] * v[k] for k in ystar.nonzero)
    return spread


def _scaled(inst: Instance, alpha: float, ystar: Flow, opt_cost: float,
            spread: float) -> tuple[Flow, float]:
    """scaled_optimum's flow and value, given also _spread(inst, ystar)."""
    scale = 1.0 - alpha
    v = ystar._loads
    scaled = [0.0] * inst.m
    total = 0.0
    for k in ystar.nonzero:
        scaled[k] = scale * v[k]
        total += scaled[k]
    y = solver_flow(scaled, ystar.nonzero, total)
    value = cost(inst, _attack(inst, y, alpha), y)
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
    _, scale_value = _scaled(inst, alpha, ystar, opt_cost_1, spread)
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


def _unit_solves(inst: Instance) -> tuple[float, Flow, float, float]:
    """The alpha-free part of a report: (nash_cost_1, unit optimum y*,
    opt_cost_1, _spread(inst, y*))."""
    nash_cost_1 = flow_cost(inst, wardrop_flow(inst, 1.0)[0])
    ystar, _ = system_optimum(inst, 1.0)
    opt_cost_1 = flow_cost(inst, ystar)
    if opt_cost_1 <= 0.0:
        raise DegenerateInstance("unit optimum cost is zero; cost of malice undefined")
    return nash_cost_1, ystar, opt_cost_1, _spread(inst, ystar)


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
    rows = []
    unit = None
    for alpha in alphas:
        alpha = check_com_alpha(alpha)
        if unit is None:
            unit = _unit_solves(inst)
        _, ystar, opt_cost_1, spread = unit
        _, certificate = pure_equilibrium(inst, alpha)
        _, scale_value = _scaled(inst, alpha, ystar, opt_cost_1, spread)
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
