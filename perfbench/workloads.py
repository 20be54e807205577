"""Seeded inputs, studies and output checks of the benchmark workloads.

Every workload runs the shipped ieee39 contingency (bus-2 fault, line 2-25
tripped at t_clear) with generator inertias drawn from the seed. A workload
is a list of studies; one pass runs each study once. The library is called
only through its module attributes (``mmadm.simulate_sas``, ...), so that the
tracer's wrappers see every call.

``ieee39-series``  ``simulate_sas`` over 4 s on the (N, T) grid below.
    ``adm.derive_window`` dominates at N >= 5; at N = 3 the ``mmadm``
    driver's per-window overhead does, so one workload separates the
    kernel from the driver.
``ieee39-rk4``     ``integrate`` over 4 s on the dt grid below: the
    competitor at matched accuracy, which never touches ``adm`` or
    ``mmadm``, so a series-kernel change must not move it.
``screening``      short contingency studies on inertia variants: fault-on
    bootstrap, accuracy windows, minimum inertias and mode periods. Here
    ``ra`` and ``netmodel`` do most of the work, and ``adm`` runs many tiny
    K = 2, N = 3 derivations dominated by per-call overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from importlib import resources
from typing import Callable

import numpy as np

from sas_transim import adm, mmadm, netmodel, ra, rk4

# Modified (minimum) inertias of the cross-engine acceptance check
# (``H_MIN_USED`` in tests/test_acceptance.py); the seed scales each one.
H_MODIFIED = {30: 106.0, 31: 109.0, 32: 105.0, 33: 110.0, 34: 113.0,
              35: 104.0, 36: 107.0, 37: 111.0, 38: 110.0, 39: 114.0}
H_SPREAD = 0.1            # factors drawn from [1 - H_SPREAD, 1 + H_SPREAD]

HORIZON = 4.0             # s after clearing
REFERENCE_DT = 1e-4       # fine-step RK4 every error is measured against
BOOTSTRAP = rk4.IntegratorConfig(dt=1e-3)
ANGLE_BOUND = 0.05        # rad of relative angle, the cross-engine bound
# A series window longer than the acceptance check's 0.2 s is a
# work-precision point beyond the engine's accuracy window: missing the
# bound there counts as a failed study but does not make the run incorrect.
DECISIVE_MAX_WINDOW = 0.2

SERIES_GRID = tuple((n, t) for n in (3, 4, 5, 6) for t in (0.05, 0.1, 0.2, 0.4)) \
    + ((8, 0.2), (8, 0.4))
RK4_GRID = (1e-3, 5e-3, 10e-3, 20e-3, 50e-3, 100e-3)

SCREENING_VARIANTS = 12
I_LOA_MAX = 3.0
TARGET_RA = 0.2           # s
HMIN_LO = 1e-2            # estimate_hmin's default lower bracket
HMIN_RECHECK = 1.0 + 2e-4  # just below H_min the target must be missed


def case_text() -> str:
    """The shipped ieee39 case document."""
    return resources.files("sas_transim").joinpath("cases/ieee39.json") \
        .read_text(encoding="utf-8")


def draw_inertias(rng: np.random.Generator | None) -> dict[int, float]:
    """Per-machine inertias; ``rng=None`` gives the unperturbed set."""
    if rng is None:
        return dict(H_MODIFIED)
    f = rng.uniform(1.0 - H_SPREAD, 1.0 + H_SPREAD, size=len(H_MODIFIED))
    return {bus: h * float(x) for (bus, h), x in zip(H_MODIFIED.items(), f)}


@dataclass(frozen=True)
class Inputs:
    """Everything the seed generates: the case text, the inertias applied to
    it at set-up, and (screening only) the inertia variants studied."""

    text: str
    inertias: dict[int, float]
    variants: tuple[dict[int, float], ...] = ()


def make_inputs(workload: str, seed: int | None) -> Inputs:
    """Inputs of one workload; ``seed=None`` gives the unperturbed case."""
    rng = None if seed is None else np.random.default_rng(seed)
    inertias = draw_inertias(rng)
    variants = ()
    if workload == "screening":
        variants = tuple(draw_inertias(rng) for _ in range(SCREENING_VARIANTS))
    return Inputs(case_text(), inertias, variants)


def with_inertias(case, inertias: dict[int, float]):
    for bus, h in inertias.items():
        case = netmodel.set_inertia(case, bus, h)
    return case


@dataclass(frozen=True)
class Prepared:
    """A case ready to simulate: post-fault right-hand side and the state
    at the clearing instant."""

    case: netmodel.PowerSystemCase
    rhs: adm.SwingRhsParams
    state: adm.MachineState

    @property
    def t0(self) -> float:
        return self.case.events.t_clear

    @property
    def reference_machine(self) -> int:
        return self.case.generator_position(self.case.reference_bus)


def setup(inputs: Inputs) -> Prepared:
    """Case text to a ready post-fault model and bootstrap state (the span
    ``setup_s`` measures)."""
    case = with_inertias(netmodel.parse_case(inputs.text), inputs.inertias)
    case = netmodel.initialized_case(case)
    rhs = adm.SwingRhsParams.from_case(case, "post_fault")
    state, _ = rk4.fault_on_bootstrap(case, BOOTSTRAP)
    return Prepared(case, rhs, state)


def reference_trajectory(prep: Prepared, dt: float = REFERENCE_DT):
    return rk4.integrate(prep.rhs, prep.state, HORIZON,
                         rk4.IntegratorConfig(dt=dt), t0=prep.t0)


def angle_error(traj, reference, machine: int) -> float:
    """Max relative-angle error at ``traj``'s own output times; the dense
    reference is the one interpolated."""
    return rk4.compare(traj, reference, reference_machine=machine).overall_max


# ---------------------------------------------------------------------------
# Studies


@dataclass(frozen=True)
class Verdict:
    error: float       # rad; the output's angle error against the reference
    ok: bool           # the output passed every check
    decisive: bool     # a miss makes the run incorrect (see DECISIVE_MAX_WINDOW)
    work: int          # windows or steps taken; 1 for a screening study


@dataclass(frozen=True)
class Study:
    """One unit of a pass. ``setting`` groups studies whose times are pooled
    (a grid point; every screening study shares one setting)."""

    setting: str
    engine: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]
    fingerprint: Callable[[object], bytes]


def _traj_fingerprint(traj) -> bytes:
    return traj.times.tobytes() + traj.delta.tobytes() + traj.omega_dev.tobytes()


def series_studies(prep: Prepared, inputs: Inputs) -> list[Study]:
    ref = reference_trajectory(prep)
    out = []
    for n, t in SERIES_GRID:
        cfg = mmadm.WindowConfig(t_init=t, n_terms=n)

        def run(cfg=cfg):
            return mmadm.simulate_sas(prep.rhs, prep.state, HORIZON, cfg, t0=prep.t0)

        def check(traj, t=t):
            err = angle_error(traj, ref, prep.reference_machine)
            return Verdict(err, err <= ANGLE_BOUND, t <= DECISIVE_MAX_WINDOW,
                           int(traj.window_boundaries.size))

        out.append(Study(f"N={n} T={t:g}", "series", run, check, _traj_fingerprint))
    return out


def rk4_studies(prep: Prepared, inputs: Inputs) -> list[Study]:
    ref = reference_trajectory(prep)
    out = []
    for dt in RK4_GRID:
        cfg = rk4.IntegratorConfig(dt=dt)

        def run(cfg=cfg):
            return rk4.integrate(prep.rhs, prep.state, HORIZON, cfg, t0=prep.t0)

        def check(traj):
            err = angle_error(traj, ref, prep.reference_machine)
            return Verdict(err, err <= ANGLE_BOUND, True, int(traj.times.size - 1))

        out.append(Study(f"dt={dt * 1e3:g}ms", "rk4", run, check, _traj_fingerprint))
    return out


@dataclass(frozen=True)
class ScreeningResult:
    case: netmodel.PowerSystemCase
    state: adm.MachineState
    fleet: tuple
    hmins: tuple[float, ...]
    periods: tuple[float, ...]


def screening_study(case) -> ScreeningResult:
    """One contingency study of an (uninitialized) inertia variant."""
    case = netmodel.initialized_case(case)
    state, _ = rk4.fault_on_bootstrap(case, BOOTSTRAP)
    fleet = tuple(ra.fleet_ra(case, state, I_LOA_MAX))
    hmins = tuple(ra.estimate_hmin(inp, TARGET_RA) for _, inp, _ in fleet)
    # Modes at the pre-fault equilibrium: linearizing the post-fault network
    # there instead raises NumericalError (complex eigenvalues) on about 1%
    # of the inertia variants.
    rhs = adm.SwingRhsParams.from_case(case, "pre_fault")
    modes = ra.mode_periods(rhs, adm.equilibrium_state(case.generators))
    return ScreeningResult(case, state, fleet, hmins, modes.periods)


def _hmin_brackets(inp, hmin: float) -> bool:
    reaches = ra.estimate_ra(replace(inp, h=hmin)).r_a >= TARGET_RA
    below = ra.estimate_ra(replace(inp, h=hmin / HMIN_RECHECK)).r_a
    return reaches and (hmin == HMIN_LO or below < TARGET_RA)


def _screening_fingerprint(res: ScreeningResult) -> bytes:
    return (res.state.delta.tobytes() + res.state.omega_dev.tobytes()
            + np.array(res.hmins + res.periods).tobytes()
            + np.array([r.r_a for _, _, r in res.fleet]).tobytes())


def screening_studies(prep: Prepared, inputs: Inputs) -> list[Study]:
    base = netmodel.parse_case(inputs.text)
    out = []
    for inertias in inputs.variants:
        case = with_inertias(base, inertias)
        # The study's angle output is its clearing state; a fine-step
        # bootstrap of the same variant is its reference.
        fine, _ = rk4.fault_on_bootstrap(case, rk4.IntegratorConfig(dt=REFERENCE_DT))
        machine = case.generator_position(case.reference_bus)

        def run(case=case):
            return screening_study(case)

        def check(res, fine=fine, machine=machine):
            rel = res.state.delta - res.state.delta[machine]
            rel_fine = fine.delta - fine.delta[machine]
            err = float(np.abs(rel - rel_fine).max())
            periods = np.array(res.periods)
            ok = (err <= ANGLE_BOUND
                  and len(res.hmins) == len(res.fleet) > 0
                  and all(_hmin_brackets(inp, h)
                          for (_, inp, _), h in zip(res.fleet, res.hmins))
                  and periods.size > 0
                  and bool(np.isfinite(periods).all() and (periods > 0).all()))
            return Verdict(err, ok, True, 1)

        out.append(Study("study", "screening", run, check, _screening_fingerprint))
    return out


def screening_threaded_calls(outputs) -> list[Callable[[], object]]:
    """fleet_ra on each verified study's clearing state with two threads,
    the only thread pool in the library."""
    return [lambda r=r: ra.fleet_ra(r.case, r.state, I_LOA_MAX, jobs=2)
            for r in outputs]


@dataclass(frozen=True)
class Workload:
    name: str
    studies: Callable[[Prepared, Inputs], list[Study]]
    threaded_calls: Callable | None = None


WORKLOADS = {w.name: w for w in (
    Workload("ieee39-series", series_studies),
    Workload("ieee39-rk4", rk4_studies),
    Workload("screening", screening_studies, screening_threaded_calls),
)}
