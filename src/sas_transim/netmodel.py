"""Case model and network algebra for classical multi-machine systems.

A case document carries solved power-flow data (this package does not solve
power flow): buses with voltage phasors and constant-impedance loads,
branches, classical generators and an optional fault script. From a case,
per-epoch bus admittance matrices are assembled (pre-fault, fault-on,
post-fault), loads are folded in as constant-impedance shunts, generator
internal nodes are appended behind the transient reactances, and Kron
reduction eliminates everything except the internal nodes. The resulting
complex admittance Y = G + jB among generator EMF nodes
(:meth:`PowerSystemCase.emf_admittance`) is what the swing equations run on:
Pe_i = sum_j E_i E_j (G_ij cos delta_ij + B_ij sin delta_ij).

All values are immutable after construction; every operation here is a pure
function, safe to call concurrently. A case computes its verified
initialization and its EMF-node reductions once and keeps them: they are
derived values that never change.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from importlib import resources

import numpy as np

from .errors import CaseParseError, NumericalError, ValidationError

EPOCHS = ("pre_fault", "fault_on", "post_fault")

# Bolted three-phase fault model: a large shunt admittance at the faulted bus,
# big enough to pin the bus voltage, small enough that the admittance matrix
# stays comfortably invertible in double precision.
FAULT_ADMITTANCE = 1.0e6

# Case files live here unless SAS_TRANSIM_CASE_DIR points elsewhere.
CASE_DIR_ENV = "SAS_TRANSIM_CASE_DIR"


# ---------------------------------------------------------------------------
# Domain types


@dataclass(frozen=True)
class BusSpec:
    """One network bus with its solved voltage phasor and constant-Z load."""

    id: int
    voltage_mag: float = 0.0   # pu; 0 means "not supplied"
    voltage_ang: float = 0.0   # rad
    p_load: float = 0.0        # pu on system base
    q_load: float = 0.0        # pu on system base


@dataclass(frozen=True)
class BranchSpec:
    """Series r + jx branch with total line-charging susceptance b_shunt."""

    from_bus: int
    to_bus: int
    r: float
    x: float
    b_shunt: float = 0.0
    in_service: bool = True


@dataclass(frozen=True)
class GeneratorParams:
    """Classical-model generator: constant EMF E∠delta0 behind xdp.

    E, delta0 and Pm may be left unset and derived from the solved bus
    voltages with :func:`init_from_powerflow`.
    """

    bus: int
    H: float                   # inertia constant, s
    xdp: float                 # transient reactance, pu
    D: float = 0.0             # damping, pu
    E: float | None = None     # internal EMF magnitude, pu
    delta0: float | None = None  # internal angle at equilibrium, rad
    Pm: float | None = None    # mechanical power, pu

    @property
    def initialized(self) -> bool:
        return self.E is not None and self.delta0 is not None and self.Pm is not None


@dataclass(frozen=True)
class EventScript:
    """Fault application and clearing: fault at ``fault_bus`` over
    [t_fault, t_clear], then the listed branches are tripped at t_clear."""

    fault_bus: int | None
    t_clear: float
    t_fault: float = 0.0
    trips: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class PowerSystemCase:
    """A parsed, validated system case. Immutable; treat arrays as read-only."""

    base_mva: float
    omega0: float
    buses: tuple[BusSpec, ...]
    branches: tuple[BranchSpec, ...]
    generators: tuple[GeneratorParams, ...]
    events: EventScript | None = None
    # Optional explicit initial machine state (absolute angles rad, speed
    # deviations rad/s), for cases whose study starts from a given
    # post-disturbance state rather than from a simulated fault.
    initial_delta: tuple[float, ...] | None = None
    initial_omega: tuple[float, ...] | None = None
    reference: int | None = None   # generator bus used for relative angles
    name: str = ""

    @property
    def k(self) -> int:
        return len(self.generators)

    @cached_property
    def bus_index(self) -> dict[int, int]:
        return {b.id: i for i, b in enumerate(self.buses)}

    def generator_at(self, bus: int) -> GeneratorParams:
        return self.generators[self.generator_position(bus)]

    def generator_position(self, bus: int) -> int:
        for i, g in enumerate(self.generators):
            if g.bus == bus:
                return i
        raise ValidationError(f"no generator at bus {bus}")

    @property
    def reference_bus(self) -> int:
        """Configured reference generator, defaulting to the largest-H machine."""
        if self.reference is not None:
            return self.reference
        return max(self.generators, key=lambda g: g.H).bus

    @cached_property
    def _emf_networks(self) -> dict[tuple[str, int | None], np.ndarray]:
        # Reductions per epoch and kept bus; shared with the initialized
        # copy, since E, delta0 and Pm enter no admittance entry.
        return {}

    def emf_admittance(self, epoch: str, bus: int | None = None) -> np.ndarray:
        """Admittance among the generator EMF nodes for one epoch, in
        generator order, and network bus ``bus`` last when one is given;
        symmetrized (read-only; reduced once per case, epoch and bus).

        Concurrent first calls may each reduce; they store equal matrices.
        """
        y = self._emf_networks.get((epoch, bus))
        if y is None:
            aug, keep = augmented_ybus(self, epoch)
            if bus is not None:
                if bus not in self.bus_index:
                    raise ValidationError(f"unknown bus {bus}")
                keep.append(self.bus_index[bus])
            y = kron_reduce(aug, keep)
            # The network is reciprocal; symmetrize away reduction round-off.
            y = 0.5 * (y + y.T)
            y.setflags(write=False)
            self._emf_networks[epoch, bus] = y
        return y


# ---------------------------------------------------------------------------
# Parsing


def _reject_unknown(obj: dict, allowed: set[str], path: str):
    unknown = set(obj) - allowed
    if unknown:
        raise CaseParseError(f"{path}: unknown field(s) {sorted(unknown)}")


def _field(obj: dict, key: str, path: str, kind, default=...):
    if key not in obj or obj[key] is None:
        if default is ...:
            raise CaseParseError(f"{path}.{key}: required field missing")
        return default
    return _value(obj[key], f"{path}.{key}", kind)


def _value(val, where: str, kind):
    """``val`` checked as ``kind``; errors name the field at ``where``."""
    if kind is float:
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise CaseParseError(f"{where}: expected a number, got {val!r}")
        if not abs(val) <= sys.float_info.max:   # also NaN and huge integers
            raise CaseParseError(f"{where}: expected a finite number, got {val!r}")
        return float(val)
    if kind is int:
        if isinstance(val, bool) or not isinstance(val, int):
            raise CaseParseError(f"{where}: expected an integer, got {val!r}")
        return val
    if kind is bool:
        if not isinstance(val, bool):
            raise CaseParseError(f"{where}: expected a boolean, got {val!r}")
        return val
    if kind is list:
        if not isinstance(val, list):
            raise CaseParseError(f"{where}: expected a list, got {type(val).__name__}")
        return val
    if kind is str:
        if not isinstance(val, str):
            raise CaseParseError(f"{where}: expected a string")
        return val
    raise AssertionError(kind)


def parse_case(text) -> PowerSystemCase:
    """Parse and validate a case document (JSON text or an already-loaded dict).

    Angles are radians, impedances/powers per-unit on ``base_mva``. Field
    names follow the type definitions in this module; ``initial_state``,
    ``reference`` and ``name`` are optional.
    """
    if isinstance(text, (str, bytes)):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CaseParseError(f"not valid JSON: {exc}") from exc
    else:
        doc = text
    if not isinstance(doc, dict):
        raise CaseParseError("top level: expected a JSON object")

    _reject_unknown(doc, {"base_mva", "frequency_hz", "buses", "branches",
                          "generators", "events", "initial_state", "reference",
                          "name"}, "top level")
    base_mva = _field(doc, "base_mva", "top level", float)
    freq = _field(doc, "frequency_hz", "top level", float)
    if base_mva <= 0 or freq <= 0:
        raise CaseParseError("base_mva and frequency_hz must be positive")
    omega0 = 2.0 * math.pi * freq

    buses = []
    for i, b in enumerate(_field(doc, "buses", "top level", list)):
        path = f"buses[{i}]"
        if not isinstance(b, dict):
            raise CaseParseError(f"{path}: expected an object")
        _reject_unknown(b, {"id", "voltage_mag", "voltage_ang", "p_load", "q_load"}, path)
        buses.append(BusSpec(
            id=_field(b, "id", path, int),
            voltage_mag=_field(b, "voltage_mag", path, float, 0.0),
            voltage_ang=_field(b, "voltage_ang", path, float, 0.0),
            p_load=_field(b, "p_load", path, float, 0.0),
            q_load=_field(b, "q_load", path, float, 0.0),
        ))
    if not buses:
        raise CaseParseError("buses: at least one bus is required")
    ids = [b.id for b in buses]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise CaseParseError(f"buses: duplicate id(s) {dupes}")
    id_set = set(ids)

    branches = []
    for i, br in enumerate(_field(doc, "branches", "top level", list)):
        path = f"branches[{i}]"
        if not isinstance(br, dict):
            raise CaseParseError(f"{path}: expected an object")
        _reject_unknown(br, {"from_bus", "to_bus", "r", "x", "b_shunt", "in_service"}, path)
        spec = BranchSpec(
            from_bus=_field(br, "from_bus", path, int),
            to_bus=_field(br, "to_bus", path, int),
            r=_field(br, "r", path, float, 0.0),
            x=_field(br, "x", path, float),
            b_shunt=_field(br, "b_shunt", path, float, 0.0),
            in_service=_field(br, "in_service", path, bool, True),
        )
        if spec.x == 0.0:
            raise CaseParseError(f"{path}.x: purely resistive branches are not supported")
        if spec.from_bus == spec.to_bus:
            raise CaseParseError(f"{path}: from_bus equals to_bus ({spec.from_bus})")
        for end in ("from_bus", "to_bus"):
            if getattr(spec, end) not in id_set:
                raise CaseParseError(f"{path}.{end}: unknown bus {getattr(spec, end)}")
        branches.append(spec)

    generators = []
    for i, g in enumerate(_field(doc, "generators", "top level", list)):
        path = f"generators[{i}]"
        if not isinstance(g, dict):
            raise CaseParseError(f"{path}: expected an object")
        _reject_unknown(g, {"bus", "H", "D", "xdp", "E", "delta0", "Pm"}, path)
        gen = GeneratorParams(
            bus=_field(g, "bus", path, int),
            H=_field(g, "H", path, float),
            xdp=_field(g, "xdp", path, float),
            D=_field(g, "D", path, float, 0.0),
            E=_field(g, "E", path, float, None),
            delta0=_field(g, "delta0", path, float, None),
            Pm=_field(g, "Pm", path, float, None),
        )
        if gen.bus not in id_set:
            raise CaseParseError(f"{path}.bus: unknown bus {gen.bus}")
        if gen.H <= 0:
            raise CaseParseError(f"{path}.H: inertia must be positive")
        if gen.xdp <= 0:
            raise CaseParseError(f"{path}.xdp: transient reactance must be positive")
        if gen.D < 0:
            raise CaseParseError(f"{path}.D: damping must be non-negative")
        if gen.E is not None and gen.E <= 0:
            raise CaseParseError(f"{path}.E: EMF magnitude must be positive")
        generators.append(gen)
    if not generators:
        raise CaseParseError("generators: at least one generator is required")
    gen_buses = [g.bus for g in generators]
    if len(set(gen_buses)) != len(gen_buses):
        raise CaseParseError("generators: multiple generators on one bus are not supported")

    by_id = {b.id: b for b in buses}
    for b in buses:
        carries = (b.p_load != 0 or b.q_load != 0 or b.id in gen_buses)
        if carries and b.voltage_mag <= 0:
            raise CaseParseError(
                f"buses[id={b.id}].voltage_mag: must be positive on load/generator "
                "buses (supply a solved power flow)")

    events = None
    if doc.get("events") is not None:
        ev = doc["events"]
        path = "events"
        if not isinstance(ev, dict):
            raise CaseParseError(f"{path}: expected an object")
        _reject_unknown(ev, {"fault_bus", "t_fault", "t_clear", "trips"}, path)
        fault_bus = _field(ev, "fault_bus", path, int, None)
        t_fault = _field(ev, "t_fault", path, float, 0.0)
        t_clear = _field(ev, "t_clear", path, float)
        trips = []
        for j, pair in enumerate(_field(ev, "trips", path, list, [])):
            if (not isinstance(pair, list)) or len(pair) != 2:
                raise CaseParseError(f"{path}.trips[{j}]: expected [from_bus, to_bus]")
            trips.append(tuple(_value(v, f"{path}.trips[{j}]", int) for v in pair))
        if fault_bus is not None and fault_bus not in id_set:
            raise CaseParseError(f"{path}.fault_bus: unknown bus {fault_bus}")
        if not (0 <= t_fault < t_clear):
            raise CaseParseError(f"{path}: need 0 <= t_fault < t_clear")
        events = EventScript(fault_bus=fault_bus, t_clear=t_clear,
                             t_fault=t_fault, trips=tuple(trips))
        for f, tbus in events.trips:
            if _find_branch(branches, f, tbus) is None:
                raise CaseParseError(f"{path}.trips: no in-service branch {f}-{tbus}")

    initial_delta = initial_omega = None
    if doc.get("initial_state") is not None:
        st = doc["initial_state"]
        path = "initial_state"
        if not isinstance(st, dict):
            raise CaseParseError(f"{path}: expected an object")
        _reject_unknown(st, {"delta", "omega_dev"}, path)
        d = _field(st, "delta", path, list)
        w = _field(st, "omega_dev", path, list)
        if len(d) != len(generators) or len(w) != len(generators):
            raise CaseParseError(f"{path}: delta/omega_dev must list one value per generator")
        initial_delta = tuple(_value(v, f"{path}.delta[{i}]", float)
                              for i, v in enumerate(d))
        initial_omega = tuple(_value(v, f"{path}.omega_dev[{i}]", float)
                              for i, v in enumerate(w))

    reference = _field(doc, "reference", "top level", int, None)
    if reference is not None and reference not in gen_buses:
        raise CaseParseError(f"reference: bus {reference} has no generator")

    case = PowerSystemCase(
        base_mva=base_mva, omega0=omega0, buses=tuple(buses),
        branches=tuple(branches), generators=tuple(generators), events=events,
        initial_delta=initial_delta, initial_omega=initial_omega,
        reference=reference, name=_field(doc, "name", "top level", str, ""),
    )
    _check_connected(case)
    return case


def _find_branch(branches, f, t) -> int | None:
    for i, br in enumerate(branches):
        if br.in_service and {br.from_bus, br.to_bus} == {f, t}:
            return i
    return None


def _check_connected(case: PowerSystemCase):
    """The post-fault network must connect all buses (over in-service branches)."""
    idx = {b.id: i for i, b in enumerate(case.buses)}
    n = len(case.buses)
    adj = [[] for _ in range(n)]
    tripped = set()
    if case.events is not None:
        tripped = {frozenset(p) for p in case.events.trips}
    for br in case.branches:
        if not br.in_service or frozenset((br.from_bus, br.to_bus)) in tripped:
            continue
        a, b = idx[br.from_bus], idx[br.to_bus]
        adj[a].append(b)
        adj[b].append(a)
    seen = {0}
    stack = [0]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    if len(seen) != n:
        missing = sorted(case.buses[i].id for i in range(n) if i not in seen)
        raise CaseParseError(f"post-fault network is not connected; isolated buses {missing}")


def load_case(path) -> PowerSystemCase:
    """Read and parse a case file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise CaseParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return parse_case(text)


def builtin_case_names() -> tuple[str, ...]:
    return ("smib", "ieee9", "ieee39")


def builtin_case(name: str) -> PowerSystemCase:
    """Load one of the shipped cases, honoring the case-directory override."""
    override = os.environ.get(CASE_DIR_ENV)
    if override:
        return load_case(os.path.join(override, f"{name}.json"))
    ref = resources.files(__package__).joinpath(f"cases/{name}.json")
    return parse_case(ref.read_text(encoding="utf-8"))


def resolve_case(spec: str) -> PowerSystemCase:
    """Accept either a path to a case file or a built-in case name."""
    if os.path.exists(spec):
        return load_case(spec)
    base = os.path.splitext(os.path.basename(spec))[0]
    if base in builtin_case_names():
        return builtin_case(base)
    raise ValidationError(f"case {spec!r}: no such file and not a built-in case name")


def set_inertia(case: PowerSystemCase, bus: int, H: float) -> PowerSystemCase:
    """Return a copy of the case with one generator's inertia replaced."""
    if not (0 < H < math.inf):
        raise ValidationError(
            f"inertia of the generator at bus {bus} must be positive and "
            f"finite, got {H!r}")
    pos = case.generator_position(bus)
    gens = list(case.generators)
    gens[pos] = replace(gens[pos], H=H)
    return replace(case, generators=tuple(gens))


# ---------------------------------------------------------------------------
# Admittance assembly and reduction


def build_ybus(case: PowerSystemCase, epoch: str) -> np.ndarray:
    """Bus admittance matrix for one topology epoch.

    Constant-impedance loads are always folded in as shunts
    y_L = (P - jQ)/|V|^2; the fault-on epoch adds FAULT_ADMITTANCE at the
    faulted bus; the post-fault epoch removes the tripped branches.
    """
    if epoch not in EPOCHS:
        raise ValidationError(f"unknown epoch {epoch!r}; expected one of {EPOCHS}")
    idx = case.bus_index
    n = len(case.buses)
    y = np.zeros((n, n), dtype=complex)

    skip = set()
    if epoch == "post_fault" and case.events is not None:
        for f, t in case.events.trips:
            b = _find_branch(case.branches, f, t)
            if b is None:
                raise ValidationError(f"tripped branch {f}-{t} does not exist")
            skip.add(b)

    for i, br in enumerate(case.branches):
        if not br.in_service or i in skip:
            continue
        a, b = idx[br.from_bus], idx[br.to_bus]
        ys = 1.0 / complex(br.r, br.x)
        y[a, a] += ys + 0.5j * br.b_shunt
        y[b, b] += ys + 0.5j * br.b_shunt
        y[a, b] -= ys
        y[b, a] -= ys

    for bus in case.buses:
        if bus.p_load != 0.0 or bus.q_load != 0.0:
            v2 = bus.voltage_mag ** 2
            y[idx[bus.id], idx[bus.id]] += complex(bus.p_load, -bus.q_load) / v2

    if epoch == "fault_on":
        if case.events is None or case.events.fault_bus is None:
            raise ValidationError("fault_on epoch requested but the case has no fault event")
        y[idx[case.events.fault_bus], idx[case.events.fault_bus]] += FAULT_ADMITTANCE
    return y


def augmented_ybus(case: PowerSystemCase, epoch: str) -> tuple[np.ndarray, list[int]]:
    """Bus matrix extended with one internal node per generator.

    Returns the (N+K)-square matrix and the row indices of the internal
    nodes, ordered like ``case.generators``.
    """
    y = build_ybus(case, epoch)
    idx = case.bus_index
    n = y.shape[0]
    k = case.k
    aug = np.zeros((n + k, n + k), dtype=complex)
    aug[:n, :n] = y
    internal = []
    for j, g in enumerate(case.generators):
        node = n + j
        yg = 1.0 / complex(0.0, g.xdp)
        b = idx[g.bus]
        aug[node, node] += yg
        aug[b, b] += yg
        aug[node, b] -= yg
        aug[b, node] -= yg
        internal.append(node)
    return aug, internal


def kron_reduce(y: np.ndarray, keep) -> np.ndarray:
    """Eliminate all nodes not in ``keep`` (order preserved), port-equivalently.

    Raises if the eliminated block is singular, identifying islanded nodes.
    """
    keep = list(keep)
    n = y.shape[0]
    elim = [i for i in range(n) if i not in set(keep)]
    if not elim:
        return y[np.ix_(keep, keep)].copy()
    _check_no_island(y, keep, elim)
    y_kk = y[np.ix_(keep, keep)]
    y_ke = y[np.ix_(keep, elim)]
    y_ek = y[np.ix_(elim, keep)]
    y_ee = y[np.ix_(elim, elim)]
    try:
        x = np.linalg.solve(y_ee, y_ek)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eliminated network block is singular: {exc}") from exc
    resid = np.abs(y_ee @ x - y_ek).max()
    scale = max(np.abs(y_ek).max(), 1.0)
    if not np.isfinite(resid) or resid > 1e-6 * scale:
        raise NumericalError("eliminated network block is numerically singular")
    return y_kk - y_ke @ x


def _check_no_island(y, keep, elim):
    adj = np.abs(y) > 1e-12
    np.fill_diagonal(adj, False)
    seen = set(keep)
    stack = list(keep)
    while stack:
        for nb in np.nonzero(adj[stack.pop()])[0]:
            if nb not in seen:
                seen.add(int(nb))
                stack.append(int(nb))
    island = [i for i in elim if i not in seen and not np.abs(y[i]).any()]
    if island:
        raise NumericalError(
            f"nodes {island} are islanded (no connection to any kept node)")


# ---------------------------------------------------------------------------
# Classical-model initialization from the solved power flow


def init_from_powerflow(case: PowerSystemCase) -> tuple[GeneratorParams, ...]:
    """Fill E, delta0 and Pm for every generator from the solved bus voltages.

    With loads folded into the pre-fault admittance matrix, the generator
    current at a bus is the matrix-vector product row; the internal EMF is
    E∠delta0 = V + j xdp I. Mechanical power is evaluated on the reduced
    network so that the returned parameters are an exact equilibrium of the
    swing equations this package integrates.
    """
    for b in case.buses:
        if b.voltage_mag <= 0:
            raise ValidationError(
                f"bus {b.id} has no solved voltage; supply a solved power flow")
    v = np.array([b.voltage_mag * cmath.exp(1j * b.voltage_ang) for b in case.buses])
    y_pre = build_ybus(case, "pre_fault")
    inj = y_pre @ v
    idx = case.bus_index

    emf = np.empty(case.k, dtype=complex)
    for j, g in enumerate(case.generators):
        if g.E is not None and g.delta0 is not None:
            emf[j] = g.E * cmath.exp(1j * g.delta0)
        else:
            i_g = inj[idx[g.bus]]
            emf[j] = v[idx[g.bus]] + 1j * g.xdp * i_g

    i_int = case.emf_admittance("pre_fault") @ emf
    pe0 = (emf * np.conj(i_int)).real

    out = []
    for j, g in enumerate(case.generators):
        pm = g.Pm if g.Pm is not None else float(pe0[j])
        out.append(replace(g, E=float(abs(emf[j])), delta0=float(np.angle(emf[j])),
                           Pm=pm))
    resid = np.max(np.abs(np.array([g.Pm for g in out]) - pe0))
    if resid >= 1e-6:
        raise ValidationError(
            f"case is not at equilibrium: max |Pm - Pe(delta0)| = {resid:.3e} pu")
    return tuple(out)


def initialized_case(case: PowerSystemCase) -> PowerSystemCase:
    """The same case with every generator's E/delta0/Pm filled in.

    The equilibrium is verified once per case: a case remembers its
    initialized copy, or that it is itself verified. A failed verification
    is not remembered and raises again.
    """
    memo = case.__dict__
    if memo.get("_verified"):
        return case
    if "_initialized" in memo:
        return memo["_initialized"]
    gens = init_from_powerflow(case)   # verifies the equilibrium
    if all(g.initialized for g in case.generators):
        out = case
    else:
        out = replace(case, generators=gens)
        out.__dict__["_emf_networks"] = case._emf_networks
        memo["_initialized"] = out
    out.__dict__["_verified"] = True
    return out
