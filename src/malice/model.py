"""Core domain types for adversarial load balancing on parallel links.

An instance is a set of m parallel links with linear latencies
l_i(z) = a_i * z + b_i.  Two players split one unit of flow: an
adversarial player (MAL) routes mass alpha so as to maximize the cost
of the other player (SOC), who routes mass 1 - alpha so as to minimize
her own cost

    C(x, y) = sum_k y_k * l_k(x_k + y_k).

Flows store absolute link loads, not fractions of a player's mass, and
carry their declared total mass explicitly so that the degenerate cases
alpha = 0 and alpha = 1 need no special handling.

Validation happens at the API boundary.  `Flow(values, mass)` is for
outside input: it checks the mass and converts each entry by one rule
(`_entry`: a finite float, noise clamped to zero).  Library code that
has just filled a `{link: load}` dict (the solvers, the game's replies,
the network demonstrator) hands it over through `solver_flow` instead,
with the flow's length and a mass its public function already checked.
Both then run one check loop over the dict's entries (for a solver's
dict, O(support) where a scan costs O(m)), which sums them and applies
the same entry rule to a negative or non-finite one, so both give the
same values, nonzero indices, sum and errors.

A Flow stores its length and its entries as such a dict: every link
that is not in it holds +0.0, so a report that never reads `values`
costs O(support), not O(m).  The public constructor keeps every entry
that is not +0.0, so a -0.0 entry reads back as itself.  The dense tuple
`values` is built from the dict on each read.

Every type in this module is immutable after construction and every
operation is a pure function, so everything here is safe to share across
threads.  That includes the plain read-only attributes set at
construction beside the fields: an Instance's `m`, `intercepts`,
`doubled_slopes` and `order` (and the tuple its `slopes` property
returns), and a Flow's `nonzero`.  Each is built once and never
changed, and none of it enters repr, == or hash.
An Instance also keeps `_unit_wardrop` and `_unit_optimum`, the memo of
its alpha-free unit solves (see game.unit_wardrop): None until the game
first solves one, then a tuple set once and never changed.  Two
threads may each fill one; the results are equal.
The memo enters neither repr, == nor hash, and pickles and copies,
rebuilt from the links, start without it.
An instance stores a -0.0 coefficient as +0.0, so its intercept order is
never None and equal instances serialize alike.
"""

import json
import math
import sys
from array import array
from dataclasses import dataclass

from .errors import (
    DimensionMismatch,
    EmptyInstance,
    InvalidAlpha,
    InvalidFlow,
    InvalidMass,
    NegativeCoefficient,
    NonFiniteCoefficient,
    SubnormalSlope,
    ValidationError,
)

# Tolerance constants used across the package; CLI reports echo these.
MASS_TOL = 1e-9          # |sum(values) - mass| <= MASS_TOL * max(1, mass)
ENTRY_CLAMP = 1e-12      # entries in [-ENTRY_CLAMP, 0) clamp to zero
CHECK_TOL = 1e-9         # certificate checks and support detection
RESIDUAL_TARGET = 1e-7   # residual size equilibrium constructions must reach
CERT_FAIL_TOL = 1e-6     # residual size that signals a solver bug, not noise

TOLERANCES = {
    "mass": MASS_TOL,
    "entry_clamp": ENTRY_CLAMP,
    "certificate": CHECK_TOL,
    "residual_target": RESIDUAL_TARGET,
    "certificate_failure": CERT_FAIL_TOL,
}


SHOWN_COUNT = 10**18  # integers larger in magnitude are printed as a bound, not in full


def shown(value) -> str:
    """value for a message: its repr, but an int beyond SHOWN_COUNT in magnitude
    as that bound, far from Python's limit on the digits of an int made a string."""
    if isinstance(value, int) and not -SHOWN_COUNT <= value <= SHOWN_COUNT:
        return f"more than {SHOWN_COUNT:.0e}" if value > 0 else f"less than {-SHOWN_COUNT:.0e}"
    return repr(value)


def check_integer(value, error, rule: str, low: int, high: float = math.inf) -> int:
    """value as an int, not a bool, in [low, high], else error("<rule>, got ...")."""
    # a bool is an int to Python, but True is no size
    if isinstance(value, bool) or not isinstance(value, int) or not low <= value <= high:
        raise error(f"{rule}, got {shown(value)}")
    return value


def check_number(value, error, rule: str, low: float, high: float = math.inf) -> float:
    """value as a finite float in [low, high], else error("<rule>, got ...")."""
    try:
        number = float(value)
    except OverflowError:
        raise error(f"{rule}, got an integer too large for a float") from None
    except (TypeError, ValueError):
        raise error(f"{rule}, got {value!r}") from None
    if not (math.isfinite(number) and low <= number <= high):
        raise error(f"{rule}, got {number}")
    return number


def check_alpha(alpha: float) -> float:
    """MAL's share of the unit total, as a float in [0, 1]."""
    return check_number(alpha, InvalidAlpha, "alpha must lie in [0, 1]", 0.0, 1.0)


def check_com_alpha(alpha: float) -> float:
    """alpha checked against [0, 1), the range where cost of malice is defined."""
    alpha = check_alpha(alpha)
    if alpha >= 1.0:
        raise InvalidAlpha("cost of malice is undefined at alpha = 1")
    return alpha


def check_mass(mass: float) -> float:
    """A flow's declared mass, as a finite nonnegative float."""
    return check_number(mass, InvalidMass, "mass must be finite and nonnegative", 0.0)


def check_sum(total: float, mass: float) -> None:
    """Flow entries summing to total must match their mass within MASS_TOL * max(1, mass)."""
    if not abs(total - mass) <= MASS_TOL * max(1.0, mass):  # a NaN total fails too
        raise InvalidMass(f"flow entries sum to {total}, declared mass {mass}")


def _frozen(kind, items) -> memoryview:
    """items packed in a read-only array of C type `kind`."""
    return memoryview(array(kind, items)).toreadonly()


def intercept_order(slopes, intercepts) -> tuple[memoryview, memoryview]:
    """The positive-slope links and the zero-slope links, each as a read-only
    array of link indices in increasing (intercept, index) order."""
    key = intercepts.__getitem__
    links = range(len(slopes))
    return (_frozen("i", sorted([i for i in links if slopes[i] > 0.0], key=key)),
            _frozen("i", sorted([i for i in links if slopes[i] == 0.0], key=key)))


def _reject(a: float, b: float):
    """Raise the error of the first check that the link (a, b) fails."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise NonFiniteCoefficient(f"link ({a}, {b}) has a non-finite coefficient")
    if a < 0.0 or b < 0.0:
        raise NegativeCoefficient(f"link ({a}, {b}) has a negative coefficient")
    raise SubnormalSlope(f"link ({a}, {b}) has a subnormal slope")


@dataclass(frozen=True)
class Instance:
    """m parallel links, each a (slope, intercept) pair of its latency.

    Construction also sets the read-only attributes that the solvers read
    on every call: `m`, the number of links; `intercepts`, the b_i as a
    tuple; `doubled_slopes`, the slopes 2 a_i of the marginal costs
    2 a_i z + b_i as a read-only array; and `order`, intercept_order of
    the links.  The memo of the unit solves starts empty (see the module
    docstring).
    """

    links: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.links) == 0:
            raise EmptyInstance("an instance needs at least one link")
        clean = []
        inf = math.inf
        tiny = sys.float_info.min
        for link in self.links:
            try:
                a, b = link
            except (TypeError, ValueError):
                raise ValidationError(f"link {len(clean)} must be a (slope, intercept) pair, "
                                      f"got {link!r}") from None
            # + 0.0 turns a -0.0 coefficient into +0.0 and leaves every other
            # float as it is, so no signed zero reaches the solvers or the output
            try:
                a = float(a) + 0.0
                b = float(b) + 0.0
            except OverflowError:  # an integer too large for a float
                raise NonFiniteCoefficient(
                    f"link {len(clean)} has a coefficient too large for a float") from None
            except (TypeError, ValueError):
                raise NonFiniteCoefficient(f"link {len(clean)} has a coefficient "
                                           f"that is not a number: ({a!r}, {b!r})") from None
            # every check in one test, with no call; NaN fails each comparison
            if not (0.0 <= b < inf and (tiny <= a < inf or a == 0.0)):
                _reject(a, b)
            clean.append((a, b))
        object.__setattr__(self, "links", tuple(clean))
        slopes = tuple(a for a, _ in clean)
        intercepts = tuple(b for _, b in clean)
        object.__setattr__(self, "m", len(clean))
        object.__setattr__(self, "_slopes", slopes)
        object.__setattr__(self, "intercepts", intercepts)
        object.__setattr__(self, "doubled_slopes", _frozen("d", [2.0 * a for a in slopes]))
        object.__setattr__(self, "order", intercept_order(slopes, intercepts))
        object.__setattr__(self, "_unit_wardrop", None)
        object.__setattr__(self, "_unit_optimum", None)

    def __reduce__(self):
        # memoryviews cannot be pickled; the caches are rebuilt from the links,
        # and the memo of the unit solves starts empty
        return type(self), (self.links,)

    # the one property: bench/tracer.py wraps its getter as the span
    # model.instance_slopes, and its install raises KeyError without one
    @property
    def slopes(self) -> tuple[float, ...]:
        return self._slopes


def validate(raw_links) -> Instance:
    """Build an Instance from (slope, intercept) pairs, rejecting bad input."""
    try:
        links = iter(raw_links)
    except TypeError:
        raise ValidationError("an instance needs an iterable of (slope, intercept) pairs, "
                              f"got {raw_links!r}") from None
    return Instance(tuple(links))


def check_links(inst: Instance, *flows) -> None:
    """Reject any flow whose length differs from the instance's link count."""
    m = inst.m
    for f in flows:
        if f._m != m:
            raise DimensionMismatch("each flow must have one entry per link")


def _entry(v) -> float:
    """One flow entry as a float: finite and at least -ENTRY_CLAMP, with
    an entry in [-ENTRY_CLAMP, 0) clamped to 0.0."""
    try:
        v = float(v)
    except OverflowError:  # an integer too large for a float
        v = math.inf
    except (TypeError, ValueError):
        raise InvalidFlow(f"flow entry {v!r} is not a number") from None
    if not math.isfinite(v):
        raise InvalidFlow("flow entries must be finite")
    if v < -ENTRY_CLAMP:
        raise InvalidFlow(f"flow entry {v} below clamp tolerance {-ENTRY_CLAMP}")
    return 0.0 if v < 0.0 else v


_set = object.__setattr__  # writes a slot of a Flow, whose own __setattr__ refuses


@dataclass(frozen=True, init=False)
class Flow:
    """A nonnegative allocation over links together with its declared mass.

    Entries in [-ENTRY_CLAMP, 0) are clamped to zero at construction;
    they are arithmetic noise from the closed-form solvers.  Anything
    more negative is an error.

    A zero entry passes every check and adds exactly nothing to the sum,
    so only the nonzero entries are looked at one by one.  Their indices,
    in increasing order, are the read-only attribute `nonzero`, which lets
    sums over a flow skip its zeros.
    The entries live in the slot `_loads`, a `{link: load}` dict that
    the library's readers index, reading a link that is not in it as
    0.0; `_m` is the flow's length.  Every flow ends in one check loop
    over that dict, in index order: the entries into which
    `Flow(values, mass)` converts outside input by `_entry`, or the
    links that library code wrote (see solver_flow).  It sums them, and
    applies `_entry` in place to a negative or non-finite one, which
    only a library dict can hold.
    It is a frozen dataclass with the fields values and mass, which give
    its equality, hash, repr and match pattern; pickles and copies are
    rebuilt from them.  `values` is the property below, so
    dataclasses.fields(Flow) shows that property as the field's default.
    """

    __slots__ = ("_loads", "_m", "mass", "nonzero")
    values: tuple[float, ...]
    mass: float

    def __init__(self, values, mass):
        _set(self, "mass", check_mass(mass))
        try:
            values = iter(values)
        except TypeError:
            raise InvalidFlow(f"flow entries must be an iterable of numbers, got {values!r}") from None
        entries = [_entry(v) for v in values]
        _set(self, "_m", len(entries))
        # every entry but +0.0, so that a -0.0 one reads back as itself
        _set(self, "_loads", {i: v for i, v in enumerate(entries) if v or math.copysign(1.0, v) < 0.0})
        self.__post_init__()

    def __post_init__(self):
        loads = self._loads
        nonzero = []
        total = 0.0
        for i in sorted(loads):
            v = loads[i]
            if v:
                if not 0.0 < v < math.inf:
                    # only a library dict holds such an entry
                    loads[i] = _entry(v)  # raises, or clamps noise to 0.0
                    continue
                total += v
                nonzero.append(i)
        check_sum(total, self.mass)
        _set(self, "nonzero", tuple(nonzero))

    @property
    def values(self) -> tuple[float, ...]:
        """The entries as a tuple of floats, one per link."""
        dense = [0.0] * self._m
        for i, v in self._loads.items():
            dense[i] = v
        return tuple(dense)

    def __reduce__(self):
        return type(self), (self.values, self.mass)


def solver_flow(loads: dict, m: int, mass: float) -> Flow:
    """The Flow of length m of a `{link: load}` dict that library code of
    this package just filled.

    Nothing but the new Flow refers to loads afterwards; only the solvers
    and the game's and families' own flows call this, so no caller's dict
    is ever kept.  mass is already a finite nonnegative float (the public
    function that filled loads checked it), so it is not checked again.
    The Flow's one check loop gives the result or error that
    Flow(values, mass) would on the dense entries.
    """
    flow = Flow.__new__(Flow)
    _set(flow, "_loads", loads)
    _set(flow, "_m", m)
    _set(flow, "mass", mass)
    flow.__post_init__()
    return flow


@dataclass(frozen=True)
class Profile:
    """A strategy pair: adversarial flow of mass alpha, social flow of mass 1 - alpha."""

    mal: Flow
    soc: Flow
    alpha: float

    def __post_init__(self):
        alpha = check_alpha(self.alpha)
        if self.mal._m != self.soc._m:
            raise DimensionMismatch("profile flows must cover the same links")
        if abs(self.mal.mass - alpha) > MASS_TOL:
            raise InvalidMass(f"adversarial mass {self.mal.mass} != alpha {alpha}")
        if abs(self.soc.mass - (1.0 - alpha)) > MASS_TOL:
            raise InvalidMass(f"social mass {self.soc.mass} != 1 - alpha {1.0 - alpha}")
        object.__setattr__(self, "alpha", alpha)


def solver_profile(mal: Flow, soc: Flow, alpha: float) -> Profile:
    """The Profile of the game's own solver flows, without Profile's checks.

    alpha is already checked, and both flows cover the instance's links
    with the masses alpha and 1 - alpha by construction, so the checks
    would pass again and are not run.
    """
    profile = Profile.__new__(Profile)
    profile.__dict__.update(mal=mal, soc=soc, alpha=alpha)
    return profile


@dataclass(frozen=True)
class EquilibriumCertificate:
    """Residuals proving a profile is a mutual best response.

    mal_residual: worst shortfall of the adversary's played links from the
        most damaging link, max_j a_j y_j - min over loaded i of a_i y_i.
    soc_residual: worst violation of equalized marginal cost under the
        latencies induced by the adversary's loads.
    value: SOC's cost at the profile.
    """

    mal_residual: float
    soc_residual: float
    value: float


@dataclass(frozen=True)
class ComReport:
    """Equilibrium value, cost-of-malice ratio, and every bound we can evaluate.

    com         = eq_value / ((1 - alpha) * opt_cost_1)
    bound_43    = 4/3, valid for every alpha on linear latencies
    bound_scale = 1 + alpha/2, via the scaled-optimum strategy
    evasive_bound = (1 - alpha) * nash_cost_1, achievable by dodging
        overloaded links no matter what the adversary plays
    """

    alpha: float
    eq_value: float
    nash_cost_1: float
    opt_cost_1: float
    com: float
    bound_43: float
    bound_scale: float
    scale_value: float
    evasive_bound: float


def cost(inst: Instance, x: Flow, y: Flow) -> float:
    """SOC's cost sum_k y_k * (a_k (x_k + y_k) + b_k) at the profile (x, y).

    Summed in index order over the links y loads.  A link that y leaves
    empty adds nothing: not its term 0 * (a_k x_k + b_k), which is NaN
    where that latency overflows.  Every cost of SOC in this package,
    its best replies' and the oracle's bounds included, follows this rule.
    """
    check_links(inst, x, y)
    return profile_cost(inst.links, x._loads, y._loads, y.nonzero)


def profile_cost(links, xv: dict, yv: dict, y_nonzero) -> float:
    """cost on the entries of two flows of links' length and y's nonzero indices."""
    total = 0.0
    for k in y_nonzero:
        a, b = links[k]
        yk = yv[k]
        total += yk * (a * (xv.get(k, 0.0) + yk) + b)
    return total


# --- serialization ---------------------------------------------------------
#
# Instance files: {"links": [{"a": <number>, "b": <number>}, ...]}
# Profiles in reports: {"alpha": <number>, "mal": [...], "soc": [...]}
# Numbers are emitted with 17 significant digits, which round-trips every
# finite double bit-exactly, and key order is fixed, so identical inputs
# produce byte-identical documents.


def dumps(payload) -> str:
    """Deterministic JSON: insertion key order, floats at 17 significant digits.

    A non-finite float is a ValueError that names the key holding it, the
    innermost one around it, if any.
    """
    return _render(payload, 0, None)


def _render(value, depth, key) -> str:
    if isinstance(value, float):
        if not math.isfinite(value):
            where = "" if key is None else f" in {json.dumps(key)}"
            raise ValueError(f"cannot serialize the non-finite number {value}{where}")
        return format(value, ".17g")
    if value is None or isinstance(value, (int, str)):  # bools included
        return json.dumps(value)
    if isinstance(value, dict):
        items = [f"{json.dumps(name)}: {_render(item, depth + 1, name)}"
                 for name, item in zip(map(str, value), value.values())]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        if all(isinstance(v, (int, float, str)) and not isinstance(v, bool) for v in value):
            # an array of numbers and strings stays on one line
            return "[" + ", ".join(_render(v, depth, key) for v in value) + "]"
        items = [_render(item, depth + 1, key) for item in value]
        brackets = "[]"
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")
    if not items:
        return brackets
    indent = "\n" + "  " * (depth + 1)
    return brackets[0] + indent + ("," + indent).join(items) + "\n" + "  " * depth + brackets[1]


def emit_instance(inst: Instance) -> str:
    """Serialize an instance to its canonical JSON document."""
    return dumps({"links": [{"a": a, "b": b} for a, b in inst.links]})


def parse_instance(text: str) -> Instance:
    """Parse the canonical instance document, validating shape and coefficients."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"instance document is not valid JSON: {exc}") from None
    except RecursionError:
        raise ValidationError("instance document is nested too deeply to parse") from None
    if not isinstance(doc, dict) or "links" not in doc:
        raise ValidationError("instance document must be an object with a 'links' array")
    raw = doc["links"]
    if not isinstance(raw, list):
        raise ValidationError("'links' must be an array")
    links = []
    for entry in raw:
        if not isinstance(entry, dict) or "a" not in entry or "b" not in entry:
            raise ValidationError("each link must be an object with 'a' and 'b'")
        a, b = entry["a"], entry["b"]
        if isinstance(a, bool) or isinstance(b, bool) \
                or not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            raise ValidationError("link coefficients must be numbers")
        links.append((a, b))
    return validate(links)


def instance_digest(inst: Instance) -> str:
    """sha256 of the canonical instance document; echoed by CLI reports."""
    import hashlib  # only reports need it, and not `malice gen`

    return hashlib.sha256(emit_instance(inst).encode("ascii")).hexdigest()
