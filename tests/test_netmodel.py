"""Case parsing, admittance assembly, Kron reduction and initialization."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from sas_transim import (CaseParseError, NumericalError, SwingRhsParams,
                         ValidationError, augmented_ybus, build_ybus,
                         builtin_case, equilibrium_state, init_from_powerflow,
                         initialized_case, kron_reduce, parse_case,
                         set_inertia)
from sas_transim.netmodel import FAULT_ADMITTANCE
from sas_transim.rk4 import IntegratorConfig, integrate


def minimal_doc(**overrides):
    doc = {
        "base_mva": 100.0,
        "frequency_hz": 60.0,
        "buses": [
            {"id": 1, "voltage_mag": 1.0, "voltage_ang": 0.0},
            {"id": 2, "voltage_mag": 1.0, "voltage_ang": 0.1},
        ],
        "branches": [{"from_bus": 1, "to_bus": 2, "r": 0.0, "x": 0.5}],
        "generators": [
            {"bus": 1, "H": 5.0, "xdp": 0.3},
            {"bus": 2, "H": 3.0, "xdp": 0.2},
        ],
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# Parsing and validation


def test_parse_smib_matches_published_parameters(smib_case):
    """Built-in single-machine case carries the published study parameters:
    H = 3 s, D = 1 pu, coupling E E_inf Y = 1.7 pu, zero self-conductance."""
    gen = smib_case.generator_at(2)
    assert gen.H == 3.0 and gen.D == 1.0
    y = smib_case.emf_admittance("pre_fault")
    coupling = gen.E * smib_case.generator_at(1).E * abs(y[0, 1])
    assert abs(coupling - 1.7) < 1e-9
    assert abs(y[0, 0].real) < 1e-9
    assert abs(gen.delta0 - 1.0472) < 1e-12


def test_parse_ieee39_inertias(ieee39_case):
    """39-bus case ships the published inertia table."""
    assert ieee39_case.generator_at(39).H == 50.0
    assert ieee39_case.generator_at(30).H == 4.2
    assert ieee39_case.k == 10


def test_parse_rejects_empty_buses():
    with pytest.raises(CaseParseError, match="at least one bus"):
        parse_case(minimal_doc(buses=[]))


def test_parse_rejects_duplicate_bus_ids():
    doc = minimal_doc()
    doc["buses"].append({"id": 1, "voltage_mag": 1.0})
    with pytest.raises(CaseParseError, match="duplicate"):
        parse_case(doc)


def test_parse_rejects_resistive_branch():
    doc = minimal_doc()
    doc["branches"][0]["x"] = 0.0
    with pytest.raises(CaseParseError, match="branches\\[0\\]"):
        parse_case(doc)


def test_parse_rejects_self_loop():
    doc = minimal_doc()
    doc["branches"][0]["to_bus"] = 1
    with pytest.raises(CaseParseError, match="from_bus equals to_bus"):
        parse_case(doc)


def test_parse_rejects_unknown_fields():
    doc = minimal_doc()
    doc["buses"][0]["voltage"] = 1.0
    with pytest.raises(CaseParseError, match="unknown field"):
        parse_case(doc)


def test_parse_rejects_unsolved_generator_bus():
    doc = minimal_doc()
    doc["buses"][0]["voltage_mag"] = 0.0
    with pytest.raises(CaseParseError, match="solved power flow"):
        parse_case(doc)


def test_parse_rejects_bad_event_times():
    doc = minimal_doc(events={"fault_bus": 1, "t_fault": 0.2, "t_clear": 0.1})
    with pytest.raises(CaseParseError, match="t_fault < t_clear"):
        parse_case(doc)


def test_parse_rejects_unknown_trip():
    doc = minimal_doc(events={"fault_bus": 1, "t_clear": 0.1, "trips": [[1, 7]]})
    with pytest.raises(CaseParseError, match="trips"):
        parse_case(doc)


def test_parse_rejects_disconnected_post_fault_network():
    doc = minimal_doc(events={"fault_bus": 1, "t_clear": 0.1, "trips": [[1, 2]]})
    with pytest.raises(CaseParseError, match="not connected"):
        parse_case(doc)


@pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN", "1" + "0" * 400])
@pytest.mark.parametrize("field, keys", [
    ("generators[0].H", ("generators", 0, "H")),
    ("generators[1].xdp", ("generators", 1, "xdp")),
    ("branches[0].x", ("branches", 0, "x")),
    ("events.t_clear", ("events", "t_clear")),
])
def test_parse_rejects_non_finite_numbers(field, keys, literal):
    """JSON text may spell Infinity and NaN, and an integer literal may lie
    beyond the float range; each is refused with the field's name."""
    doc = minimal_doc(events={"fault_bus": 1, "t_clear": 0.1})
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = "@"
    text = json.dumps(doc).replace('"@"', literal)
    with pytest.raises(CaseParseError, match=f"{re.escape(field)}: expected a finite"):
        parse_case(text)


@pytest.mark.parametrize("where, entry, message", [
    ("events.trips[0]", ["a", 2], "expected an integer, got 'a'"),
    ("events.trips[0]", [1, 2.7], "expected an integer, got 2.7"),
    ("events.trips[0]", [True, 2], "expected an integer, got True"),
    ("initial_state.delta[1]", "x", "expected a number, got 'x'"),
    ("initial_state.delta[1]", True, "expected a number, got True"),
    ("initial_state.omega_dev[1]", math.nan, "expected a finite number"),
])
def test_parse_checks_list_entries(where, entry, message):
    """List entries follow the same integer and number rules as fields."""
    if where.startswith("events"):
        doc = minimal_doc(events={"fault_bus": 1, "t_clear": 0.1, "trips": [entry]})
    else:
        values = {"delta": [0.0, 0.1], "omega_dev": [0.0, 0.0]}
        values[where.split(".")[1].split("[")[0]][1] = entry
        doc = minimal_doc(initial_state=values)
    with pytest.raises(CaseParseError, match=re.escape(f"{where}: {message}")):
        parse_case(doc)


def test_parse_accepts_json_text():
    case = parse_case(json.dumps(minimal_doc()))
    assert case.k == 2 and case.omega0 == pytest.approx(2 * math.pi * 60)


# ---------------------------------------------------------------------------
# Admittance assembly


def test_ybus_single_branch():
    """One purely reactive branch: off-diagonal is -1/(j 0.5) = +2j."""
    case = parse_case(minimal_doc())
    y = build_ybus(case, "pre_fault")
    assert y[0, 1] == pytest.approx(2j)
    assert y[0, 0] == pytest.approx(-2j)


def test_ybus_fault_shunt_dominates():
    doc = minimal_doc(events={"fault_bus": 2, "t_clear": 0.05})
    case = parse_case(doc)
    y = build_ybus(case, "fault_on")
    assert abs(y[1, 1]) == pytest.approx(FAULT_ADMITTANCE, rel=1e-4)


def test_ybus_epoch_consistency(ieee9_case):
    """fault_on differs from pre_fault exactly in the fault shunt; post_fault
    differs exactly in the tripped branches."""
    pre = build_ybus(ieee9_case, "pre_fault")
    fault = build_ybus(ieee9_case, "fault_on")
    post = build_ybus(ieee9_case, "post_fault")
    diff = fault - pre
    k = ieee9_case.bus_index[ieee9_case.events.fault_bus]
    assert diff[k, k] == pytest.approx(FAULT_ADMITTANCE)
    diff[k, k] = 0.0
    assert np.abs(diff).max() == 0.0
    # the 9-bus script trips line 5-7 at clearing
    d2 = pre - post
    i5, i7 = ieee9_case.bus_index[5], ieee9_case.bus_index[7]
    ys = 1.0 / complex(0.032, 0.161)
    assert d2[i5, i7] == pytest.approx(-ys)
    assert d2[i5, i5] == pytest.approx(ys + 0.5j * 0.306)
    d2[np.ix_([i5, i7], [i5, i7])] = 0.0
    assert np.abs(d2).max() < 1e-15


def test_ybus_nine_bus_against_bruteforce_oracle(ieee9_case):
    """Entrywise check against an independently assembled matrix."""
    n = len(ieee9_case.buses)
    idx = {b.id: i for i, b in enumerate(ieee9_case.buses)}
    want = np.zeros((n, n), complex)
    for br in ieee9_case.branches:
        a, b = idx[br.from_bus], idx[br.to_bus]
        y = 1.0 / complex(br.r, br.x)
        want[a, b] -= y
        want[b, a] -= y
        want[a, a] += y + 0.5j * br.b_shunt
        want[b, b] += y + 0.5j * br.b_shunt
    for bus in ieee9_case.buses:
        if bus.p_load or bus.q_load:
            want[idx[bus.id], idx[bus.id]] += (
                complex(bus.p_load, -bus.q_load) / bus.voltage_mag ** 2)
    got = build_ybus(ieee9_case, "pre_fault")
    assert np.abs(got - want).max() < 1e-10


def test_ybus_rejects_unknown_epoch(ieee9_case):
    with pytest.raises(ValidationError):
        build_ybus(ieee9_case, "mid_fault")


# ---------------------------------------------------------------------------
# Kron reduction


def test_kron_single_machine_hand_computation():
    """Internal node behind xdp = 0.3 plus a branch to a shunt-grounded bus
    reduces to the series/parallel hand value."""
    xdp, xline = 0.3, 0.5
    shunt = 2.0 - 0.5j
    y_g = 1 / (1j * xdp)
    y_l = 1 / (1j * xline)
    y = np.array([
        [y_g, -y_g, 0],
        [-y_g, y_g + y_l, -y_l],
        [0, -y_l, y_l + shunt],
    ])
    red = kron_reduce(y, [0])
    # eliminate node 2 into node 1 by hand, then node 1 into node 0
    y11 = y_g + y_l - y_l ** 2 / (y_l + shunt)
    want = y_g - y_g ** 2 / y11
    assert red[0, 0] == pytest.approx(want, rel=1e-12)


def random_network(rng, n):
    """Random connected reciprocal network with shunts."""
    y = np.zeros((n, n), complex)
    # spanning chain plus random extra branches
    edges = [(i, i + 1) for i in range(n - 1)]
    for _ in range(n):
        a, b = rng.integers(0, n, 2)
        if a != b:
            edges.append((min(a, b), max(a, b)))
    for a, b in edges:
        ys = 1.0 / complex(rng.uniform(0.0, 0.05), rng.uniform(0.05, 0.5))
        y[a, b] -= ys
        y[b, a] -= ys
        y[a, a] += ys
        y[b, b] += ys
    for i in range(n):
        y[i, i] += complex(rng.uniform(0.0, 1.0), rng.uniform(-0.5, 0.5))
    return y


def test_kron_port_equivalence_randomized():
    """For injections on kept nodes, kept-node voltages from the full solve
    equal those from the reduced solve."""
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(4, 9))
        y = random_network(rng, n)
        k = int(rng.integers(1, n - 1))
        keep = sorted(rng.choice(n, size=k, replace=False).tolist())
        red = kron_reduce(y, keep)
        inj = np.zeros(n, complex)
        inj[keep] = rng.normal(size=k) + 1j * rng.normal(size=k)
        v_full = np.linalg.solve(y, inj)
        v_red = np.linalg.solve(red, inj[keep])
        assert np.abs(v_full[keep] - v_red).max() < 1e-9


def test_kron_reports_islanded_node():
    y = np.zeros((3, 3), complex)
    y[0, 0] = 1.0  # node 1 and 2 are disconnected; node 2 has no ties at all
    y[1, 1] = 2.0
    with pytest.raises(NumericalError, match="island"):
        kron_reduce(y, [0])


def test_reduced_network_symmetric(ieee39_case):
    for epoch in ("pre_fault", "fault_on", "post_fault"):
        yc = ieee39_case.emf_admittance(epoch)
        assert np.abs(yc - yc.T).max() < 1e-12
        assert np.isfinite(yc).all()


# ---------------------------------------------------------------------------
# Initialization from the solved power flow


def test_init_open_circuit_generator():
    """A generator with no load and no network flow keeps E = V and Pm = 0."""
    doc = {
        "base_mva": 100.0,
        "frequency_hz": 60.0,
        "buses": [
            {"id": 1, "voltage_mag": 1.02, "voltage_ang": 0.3},
            {"id": 2, "voltage_mag": 1.02, "voltage_ang": 0.3},
        ],
        "branches": [{"from_bus": 1, "to_bus": 2, "r": 0.0, "x": 0.4}],
        "generators": [{"bus": 1, "H": 4.0, "xdp": 0.25}],
    }
    gens = init_from_powerflow(parse_case(doc))
    assert gens[0].E == pytest.approx(1.02, abs=1e-12)
    assert gens[0].delta0 == pytest.approx(0.3, abs=1e-12)
    assert gens[0].Pm == pytest.approx(0.0, abs=1e-12)


def test_init_smib_delta0(smib_case):
    gens = init_from_powerflow(smib_case)
    assert gens[0].delta0 == pytest.approx(1.0472, abs=1e-9)


def test_init_nine_bus_dispatch(ieee9_case):
    """Classical initialization recovers the case's published dispatch."""
    pm = {g.bus: g.Pm for g in ieee9_case.generators}
    assert pm[1] == pytest.approx(0.716, abs=0.002)
    assert pm[2] == pytest.approx(1.630, abs=0.002)
    assert pm[3] == pytest.approx(0.850, abs=0.002)


def test_init_equilibrium_residual(ieee9_case):
    """The initialized state is an equilibrium of the swing right-hand side."""
    rhs = SwingRhsParams.from_case(ieee9_case, "pre_fault")
    eq = equilibrium_state(ieee9_case.generators)
    acc = rhs.acceleration(eq.delta, eq.omega_dev)
    assert np.abs(acc).max() < 1e-6


def test_init_requires_voltages():
    doc = minimal_doc()
    doc["buses"].append({"id": 3})
    doc["branches"].append({"from_bus": 2, "to_bus": 3, "r": 0.0, "x": 1.0})
    with pytest.raises(ValidationError, match="solved power flow"):
        init_from_powerflow(parse_case(doc))


def test_equilibrium_holds_under_integration(ieee39_case):
    """With no events, RK4 from the equilibrium stays put for a second."""
    rhs = SwingRhsParams.from_case(ieee39_case, "pre_fault")
    eq = equilibrium_state(ieee39_case.generators)
    traj = integrate(rhs, eq, 1.0, IntegratorConfig(dt=1e-3, record_every=100))
    assert np.abs(traj.delta - eq.delta).max() < 1e-6
    assert np.abs(traj.omega_dev).max() < 1e-6


def test_set_inertia_returns_new_case(ieee9_case):
    mod = set_inertia(ieee9_case, 3, 4.5)
    assert mod.generator_at(3).H == 4.5
    assert ieee9_case.generator_at(3).H == 3.01
    with pytest.raises(ValidationError):
        set_inertia(ieee9_case, 99, 1.0)


@pytest.mark.parametrize("h", [math.inf, math.nan, 0.0, -1.0])
def test_set_inertia_requires_finite_positive_h(ieee9_case, h):
    with pytest.raises(ValidationError, match=rf"bus 2 .*{re.escape(repr(h))}"):
        set_inertia(ieee9_case, 2, h)


# ---------------------------------------------------------------------------
# A case prepares its networks once


def test_case_reduces_each_epoch_once(monkeypatch):
    """Initialization, the fault-on bootstrap, the fleet's accuracy windows
    and both right-hand sides share one reduction per epoch; accuracy
    windows against a bus, for the fleet and per machine, share one more."""
    from sas_transim import netmodel, ra
    from sas_transim.rk4 import fault_on_bootstrap
    calls = []
    for mod in (netmodel, ra):
        orig = mod.kron_reduce
        monkeypatch.setattr(mod, "kron_reduce",
                            lambda *a, _orig=orig: calls.append(1) or _orig(*a))
    case = builtin_case("ieee39")

    def study():
        initialized_case(case)
        state, _ = fault_on_bootstrap(case)
        ra.fleet_ra(case, state, 5.0)
        ra.fleet_ra(case, state, 5.0, reference=("bus", 5))
        for g in case.generators:
            ra.ra_inputs_for_machine(case, g.bus, state, 5.0, reference=("bus", 5))
        for epoch in ("pre_fault", "post_fault"):
            SwingRhsParams.from_case(case, epoch)

    study()
    assert len(calls) == 4
    study()
    assert len(calls) == 4


def test_failed_initialization_raises_every_time(ieee9_case):
    gens = list(ieee9_case.generators)
    gens[0] = replace(gens[0], Pm=gens[0].Pm + 0.1)
    off = replace(ieee9_case, generators=tuple(gens))
    for _ in range(2):
        with pytest.raises(ValidationError, match="not at equilibrium"):
            initialized_case(off)


def test_initialized_inertia_variant_keeps_its_inertia():
    case = builtin_case("ieee9")
    assert initialized_case(case).generator_at(3).H == 3.01
    variant = initialized_case(set_inertia(case, 3, 4.5))
    assert variant.generator_at(3).H == 4.5
    assert initialized_case(case).generator_at(3).H == 3.01


@pytest.mark.parametrize("name", ["ieee9", "ieee39"])
def test_remembered_network_equals_a_fresh_reduction(name):
    case = initialized_case(builtin_case(name))
    for epoch in ("pre_fault", "fault_on", "post_fault"):
        got = SwingRhsParams.from_case(case, epoch).y
        fresh = kron_reduce(*augmented_ybus(case, epoch))
        assert np.array_equal(got, 0.5 * (fresh + fresh.T))
        aug, keep = augmented_ybus(case, epoch)
        red = kron_reduce(aug, keep + [case.bus_index[5]])
        assert np.array_equal(case.emf_admittance(epoch, 5), 0.5 * (red + red.T))
