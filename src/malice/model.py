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
(`_entry`: a finite float, noise clamped to zero) into a new list.
Library code that has just filled a plain list (the solvers, the game's
replies, the network demonstrator) hands it over through `solver_flow`
instead, with a mass its public function already checked and the links
it wrote; every other entry is still 0.0.  Both then run one check loop
over the entries that may be nonzero (the written ones of a library
list: O(support), where a scan costs O(m)), which sums them and applies
the same entry rule to a negative or non-finite one, so both give the
same values, nonzero indices, sum and errors.

A Flow keeps its entries in one slot: a list that nothing else refers
to, until the first read of `values` replaces it with its tuple, so a
report that never reads it never copies m entries.  Two threads reading
it first at once may each build a tuple; the tuples are equal, and
either is kept.

Every type in this module is immutable after construction and every
operation is a pure function, so everything here is safe to share across
threads.  That includes what an Instance caches beside its fields (its
slopes, intercepts, doubled slopes and intercept order) and what a Flow
caches (the indices of its nonzero entries): each is built once and
never changed, and none of it enters repr, == or hash.
An instance stores a -0.0 coefficient as +0.0, so its intercept order is
never None and equal instances serialize alike.
"""

import hashlib
import json
import math
import sys
from array import array
from dataclasses import FrozenInstanceError, dataclass
from itertools import compress

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


def check_alpha(alpha: float) -> float:
    """MAL's share of the unit total, as a float in [0, 1]."""
    try:
        alpha = float(alpha)
    except OverflowError:
        raise InvalidAlpha("alpha must lie in [0, 1], "
                           "got an integer too large for a float") from None
    if not math.isfinite(alpha) or not 0.0 <= alpha <= 1.0:
        raise InvalidAlpha(f"alpha must lie in [0, 1], got {alpha}")
    return alpha


def check_com_alpha(alpha: float) -> float:
    """alpha checked against [0, 1), the range where cost of malice is defined."""
    alpha = check_alpha(alpha)
    if alpha >= 1.0:
        raise InvalidAlpha("cost of malice is undefined at alpha = 1")
    return alpha


def check_mass(mass: float) -> float:
    """A flow's declared mass, as a finite nonnegative float."""
    try:
        mass = float(mass)
    except OverflowError:
        raise InvalidMass("mass must be finite and nonnegative, "
                          "got an integer too large for a float") from None
    if not math.isfinite(mass) or mass < 0.0:
        raise InvalidMass(f"mass must be finite and nonnegative, got {mass}")
    return mass


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
    """m parallel links, each a (slope, intercept) pair of its latency."""

    links: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.links) == 0:
            raise EmptyInstance("an instance needs at least one link")
        clean = []
        inf = math.inf
        tiny = sys.float_info.min
        for a, b in self.links:
            # + 0.0 turns a -0.0 coefficient into +0.0 and leaves every other
            # float as it is, so no signed zero reaches the solvers or the output
            try:
                a = float(a) + 0.0
                b = float(b) + 0.0
            except OverflowError:  # an integer too large for a float
                raise NonFiniteCoefficient(
                    f"link {len(clean)} has a coefficient too large for a float") from None
            # every check in one test, with no call; NaN fails each comparison
            if not (0.0 <= b < inf and (tiny <= a < inf or a == 0.0)):
                _reject(a, b)
            clean.append((a, b))
        object.__setattr__(self, "links", tuple(clean))
        # built once: the solvers read these on every call
        slopes = tuple(a for a, _ in clean)
        intercepts = tuple(b for _, b in clean)
        object.__setattr__(self, "_slopes", slopes)
        object.__setattr__(self, "_intercepts", intercepts)
        object.__setattr__(self, "_doubled", _frozen("d", [2.0 * a for a in slopes]))
        object.__setattr__(self, "_order", intercept_order(slopes, intercepts))

    def __reduce__(self):
        # memoryviews cannot be pickled; the caches are rebuilt from the links
        return type(self), (self.links,)

    @property
    def m(self) -> int:
        return len(self.links)

    @property
    def slopes(self) -> tuple[float, ...]:
        return self._slopes

    @property
    def intercepts(self) -> tuple[float, ...]:
        return self._intercepts

    @property
    def doubled_slopes(self) -> memoryview:
        """2 a_i per link: the slopes of the marginal costs 2 a_i z + b_i."""
        return self._doubled

    @property
    def order(self) -> tuple[memoryview, memoryview]:
        """intercept_order of the links."""
        return self._order


def validate(raw_links) -> Instance:
    """Build an Instance from (slope, intercept) pairs, rejecting bad input."""
    return Instance(tuple(raw_links))


def check_links(inst: Instance, *flows) -> None:
    """Reject any flow whose length differs from the instance's link count."""
    m = len(inst.links)
    for f in flows:
        if len(f._loads) != m:
            raise DimensionMismatch("each flow must have one entry per link")


def _entry(v) -> float:
    """One flow entry as a float: finite and at least -ENTRY_CLAMP, with
    an entry in [-ENTRY_CLAMP, 0) clamped to 0.0."""
    try:
        v = float(v)
    except OverflowError:  # an integer too large for a float
        v = math.inf
    if not math.isfinite(v):
        raise InvalidFlow("flow entries must be finite")
    if v < -ENTRY_CLAMP:
        raise InvalidFlow(f"flow entry {v} below clamp tolerance {-ENTRY_CLAMP}")
    return 0.0 if v < 0.0 else v


_set = object.__setattr__  # writes a slot of a Flow, whose own __setattr__ refuses


class Flow:
    """A nonnegative allocation over links together with its declared mass.

    Entries in [-ENTRY_CLAMP, 0) are clamped to zero at construction;
    they are arithmetic noise from the closed-form solvers.  Anything
    more negative is an error.

    A zero entry passes every check and adds exactly nothing to the sum,
    so only the nonzero entries are looked at one by one; their indices
    are kept as `nonzero`, which lets sums over a flow skip its zeros.
    Every flow ends in one check loop, which reads the entries only at
    the indices it is given: the nonzero ones of the list into which
    `Flow(values, mass)` converts outside input by `_entry`, or the
    links that library code wrote (see solver_flow).  It sums them, and
    applies `_entry` in place to a negative or non-finite one, which
    only a library list can hold.

    The entries live in one slot, `_loads`, which the library's readers
    index: a private list until the first read of `values` replaces it
    with its tuple.
    Equality, hash, repr, pickling and copies are those of a frozen
    dataclass with the fields values and mass.
    """

    __slots__ = ("_loads", "mass", "_nonzero")
    __match_args__ = ("values", "mass")

    def __init__(self, values, mass):
        _set(self, "mass", check_mass(mass))
        _set(self, "_loads", [_entry(v) for v in values])
        _set(self, "_nonzero", compress(range(len(self._loads)), self._loads))
        self.__post_init__()

    def __post_init__(self):
        # _nonzero holds, until now, the links whose entries may be nonzero
        loads = self._loads
        nonzero = []
        total = 0.0
        for i in sorted(self._nonzero):
            v = loads[i]
            if v:
                if not 0.0 < v < math.inf:
                    # only a library list holds such an entry; an early read
                    # of values may already have made it a tuple
                    if loads.__class__ is not list:
                        loads = list(loads)
                        _set(self, "_loads", loads)
                    loads[i] = _entry(v)  # raises, or clamps noise to 0.0
                    continue
                total += v
                nonzero.append(i)
        check_sum(total, self.mass)
        _set(self, "_nonzero", tuple(nonzero))

    @property
    def values(self) -> tuple[float, ...]:
        """The entries as a tuple of floats, one per link."""
        if self._loads.__class__ is list:
            _set(self, "_loads", tuple(self._loads))
        return self._loads

    @property
    def nonzero(self) -> tuple[int, ...]:
        """Indices of the nonzero (hence positive) entries, in increasing order."""
        return self._nonzero

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self._nonzero)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self):
        return f"{type(self).__qualname__}(values={self.values!r}, mass={self.mass!r})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.values, self.mass) == (other.values, other.mass)
        return NotImplemented

    def __hash__(self):
        return hash((self.values, self.mass))

    def __reduce__(self):
        return type(self), (self.values, self.mass)


def solver_flow(loads: list, links, mass: float) -> Flow:
    """The Flow of a list that library code of this package just filled.

    Every entry of loads but those at links is 0.0, and nothing but the
    new Flow refers to loads afterwards; only the solvers and the game's
    and families' own flows call this, so no caller's list is ever kept.
    mass is already a finite nonnegative float (the public function that
    filled loads checked it), so it is not checked again.  The Flow's
    one check loop reads loads only at links, and gives the result or
    error that Flow(loads, mass) would.
    """
    flow = Flow.__new__(Flow)
    _set(flow, "_loads", loads)
    _set(flow, "_nonzero", links)
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
        if len(self.mal._loads) != len(self.soc._loads):
            raise DimensionMismatch("profile flows must cover the same links")
        if abs(self.mal.mass - alpha) > MASS_TOL:
            raise InvalidMass(f"adversarial mass {self.mal.mass} != alpha {alpha}")
        if abs(self.soc.mass - (1.0 - alpha)) > MASS_TOL:
            raise InvalidMass(f"social mass {self.soc.mass} != 1 - alpha {1.0 - alpha}")
        object.__setattr__(self, "alpha", alpha)


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

    Summed in index order over the links y loads.  Elsewhere a term is
    0 * (a_k x_k + b_k): exactly zero, which leaves the sum as it is, or
    NaN where a_k x_k + b_k overflows, which makes it NaN wherever it is
    added; so those terms are added only where x loads the link.
    """
    check_links(inst, x, y)
    links = inst.links
    xv = x._loads
    yv = y._loads
    total = 0.0
    for k in y.nonzero:
        a, b = links[k]
        yk = yv[k]
        total += yk * (a * (xv[k] + yk) + b)
    for k in x.nonzero:
        yk = yv[k]
        if not yk:
            a, b = links[k]
            total += yk * (a * (xv[k] + yk) + b)
    return total


# --- serialization ---------------------------------------------------------
#
# Instance files: {"links": [{"a": <number>, "b": <number>}, ...]}
# Profiles in reports: {"alpha": <number>, "mal": [...], "soc": [...]}
# Numbers are emitted with 17 significant digits, which round-trips every
# finite double bit-exactly, and key order is fixed, so identical inputs
# produce byte-identical documents.


def dumps(payload) -> str:
    """Deterministic JSON: insertion key order, floats at 17 significant digits."""
    return _render(payload, 0)


def _render(value, depth) -> str:
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"cannot serialize the non-finite number {value}")
        return format(value, ".17g")
    if value is None or isinstance(value, (int, str)):  # bools included
        return json.dumps(value)
    if isinstance(value, dict):
        items = [f"{json.dumps(str(key))}: {_render(item, depth + 1)}" for key, item in value.items()]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        if all(isinstance(v, (int, float, str)) and not isinstance(v, bool) for v in value):
            # an array of numbers and strings stays on one line
            return "[" + ", ".join(_render(v, depth) for v in value) + "]"
        items = [_render(item, depth + 1) for item in value]
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
    return hashlib.sha256(emit_instance(inst).encode("ascii")).hexdigest()
