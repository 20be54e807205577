"""Command-line front end: simulate, compare, accuracy-window and
minimum-inertia studies, mode analysis, and timing benchmarks.

Exit codes: 0 success, 1 input/validation problem, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .adm import MachineState, SwingRhsParams, equilibrium_state
from .errors import NumericalError, ValidationError
from .mmadm import MAX_N_TERMS, WindowConfig, read_csv, simulate_sas
from .netmodel import initialized_case, resolve_case, set_inertia
from .ra import (estimate_hmin, estimate_ra, fleet_ra, mode_periods,
                 ra_inputs_for_machine, system_ra)
from .rk4 import IntegratorConfig, compare, fault_on_bootstrap, integrate


@dataclass(frozen=True)
class BenchReport:
    """Timing summary of one benchmark run.

    ``online_eval_s`` is the wall time per simulated window (2 evaluations,
    the last of which is the handoff, and the next window's coefficient
    recursion); ``t_over_tau`` is the faster-than-real-time ratio of the
    mean simulated window, horizon / windows, to that time.
    """

    offline_setup_s: float
    online_eval_s: float
    rk4_s: float
    speed_ratio_vs_rk4: float
    windows: int
    t_over_tau: float


# ---------------------------------------------------------------------------
# Shared helpers


def _add_case_args(p):
    p.add_argument("case", help="case file path or built-in name (smib, ieee9, ieee39)")
    p.add_argument("--h3", type=float, default=None,
                   help="override the inertia of the generator at bus 3 (9-bus studies)")
    p.add_argument("--set-h", action="append", default=[], metavar="BUS=H",
                   help="override one generator inertia; repeatable")


def _load_case(args):
    case = resolve_case(args.case)
    overrides = [] if args.h3 is None else [("--h3", 3, args.h3)]
    for spec in args.set_h:
        try:
            bus, h = spec.split("=")
            overrides.append((f"--set-h {spec!r}", int(bus), float(h)))
        except ValueError as exc:
            raise ValidationError(f"--set-h {spec!r}: expected BUS=H") from exc
    for flag, bus, h in overrides:
        try:
            case = set_inertia(case, bus, h)
        except ValidationError as exc:
            raise ValidationError(f"{flag}: {exc}") from None
    return initialized_case(case)


_REFERENCE_HELP = ("reference node: gen:BUS, bus:BUS, or a bare BUS (the generator there, "
                   "otherwise the bus); default largest-H machine")


def _reference_arg(case, text):
    """--reference forms: '39' (the generator at bus 39, otherwise the bus),
    'gen:39', 'bus:1'. Default: the case's reference / largest-H machine."""
    if text is None:
        return ("gen", case.reference_bus)
    kind, bus = text.split(":", 1) if ":" in text else (None, text)
    if kind not in (None, "gen", "bus"):
        raise ValidationError(f"--reference {text!r}: prefix must be gen: or bus:")
    try:
        bus = int(bus)
    except ValueError:
        raise ValidationError(
            f"--reference {text!r}: expected BUS, gen:BUS or bus:BUS") from None
    if kind is None:
        kind = "gen" if any(g.bus == bus for g in case.generators) else "bus"
    return (kind, bus)


def _initial_state(case, dt):
    """Post-disturbance initial state and its absolute start time."""
    if case.events is not None and case.events.fault_bus is not None:
        state, _ = fault_on_bootstrap(case, IntegratorConfig(dt=dt))
        return state, case.events.t_clear
    if case.initial_delta is not None:
        return MachineState(np.array(case.initial_delta),
                            np.array(case.initial_omega)), 0.0
    return equilibrium_state(case.generators), 0.0


# The library's name for each option that must be positive and finite.
_POSITIVE = {"iloa_max": "i_loa_max", "window": "t_init", "horizon": "horizon",
             "target_ra": "target_ra", "dt": "dt", "search_window": "search horizon"}


def _check_positive(args, *dests):
    """Refuse a given option that is non-positive or non-finite before any work."""
    for dest in dests:
        value = getattr(args, dest)
        if value is not None and not (value > 0 and math.isfinite(value)):
            raise ValidationError(f"--{dest.replace('_', '-')}: {_POSITIVE[dest]} "
                                  f"must be positive and finite, got {value!r}")


# The least value of each integer option, and the greatest --n-terms.
_LEAST = {"n_terms": 2, "samples": 3, "record_every": 1}


def _check_counts(args, *dests):
    """Refuse a given integer option out of its range before any work."""
    for dest in dests:
        value, flag = getattr(args, dest), "--" + dest.replace("_", "-")
        if value < _LEAST[dest]:
            raise ValidationError(f"{flag}: must be at least {_LEAST[dest]}, got {value}")
        if dest == "n_terms" and value > MAX_N_TERMS:
            raise ValidationError(f"{flag}: must be at most MAX_N_TERMS = {MAX_N_TERMS}, "
                                  f"got {value}")


def _default_window(case, state, args, reference=None):
    """0.4x the system accuracy window at ``state``, at most the horizon: the
    fraction at which simulate's default N = 5 holds 0.05 rad at the acceptance
    check's minimum inertias (0.8x, at N = 3 or 5, does not)."""
    est = 0.4 * system_ra(fleet_ra(case, state, args.iloa_max, reference=reference))
    return min(est, args.horizon)


def _print_table(header, rows, as_csv, out=None):
    out = out if out is not None else sys.stdout
    if as_csv:
        out.write(",".join(header) + "\n")
        for r in rows:
            out.write(",".join(f"{v:.9g}" if isinstance(v, float) else str(v)
                               for v in r) + "\n")
        return
    widths = [max(len(str(h)), 12) for h in header]
    out.write("  ".join(f"{h:>{w}}" for h, w in zip(header, widths)) + "\n")
    for r in rows:
        cells = [f"{v:.6g}" if isinstance(v, float) else str(v) for v in r]
        out.write("  ".join(f"{c:>{w}}" for c, w in zip(cells, widths)) + "\n")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_simulate(args) -> int:
    _check_positive(args, "iloa_max", "window", "horizon", "dt")
    _check_counts(args, "n_terms", "samples", "record_every")
    case = _load_case(args)
    kind, ref_bus = _reference_arg(case, args.reference)
    if kind == "bus" and args.relative:
        raise ValidationError(f"--relative needs a generator reference, not bus:{ref_bus}")
    ref_pos = case.generator_position(ref_bus) if kind == "gen" else None
    state, t0 = _initial_state(case, args.dt)
    rhs = SwingRhsParams.from_case(case, "post_fault")

    if args.engine == "rk4":
        traj = integrate(rhs, state, args.horizon,
                         IntegratorConfig(dt=args.dt, record_every=args.record_every),
                         t0=t0)
    else:
        window = args.window
        if window is None:
            window = _default_window(case, state, args, reference=(kind, ref_bus))
        cfg = WindowConfig(t_init=window, n_terms=args.n_terms,
                           i_loa_max=args.iloa_max, adaptive=args.adaptive,
                           samples_per_window=args.samples)
        traj = simulate_sas(rhs, state, args.horizon, cfg, t0=t0)

    out = args.out or f"{case.name or 'case'}_{args.engine}.csv"
    traj.write_csv(out)
    print(f"wrote {traj.times.size} samples to {out}")
    if args.relative:
        rel_out = out.rsplit(".", 1)[0] + "_rel.csv"
        traj.write_csv(rel_out, reference=ref_pos)
        print(f"wrote relative angles to {rel_out}")
    if traj.source == "sas":
        nb = 0 if traj.window_boundaries is None else traj.window_boundaries.size
        print(f"windows used: {nb}, adaptive cuts: {traj.adaptive_cuts}")
    final = traj.final_state.delta
    if ref_pos is None:
        label = "absolute"
    else:
        label, final = "relative", final - final[ref_pos]
    print(f"final {label} angles (rad): "
          + " ".join(f"{g.bus}:{r:+.4f}" for g, r in zip(case.generators, final)))
    return 0


def cmd_compare(args) -> int:
    a = read_csv(args.csv_a)
    b = read_csv(args.csv_b)
    ref = None
    if args.reference is not None:
        if not 1 <= args.reference <= a.k:
            raise ValidationError(
                f"--reference {args.reference}: expected a machine column in 1..{a.k}")
        ref = args.reference - 1
    rep = compare(a, b, reference_machine=ref)
    if args.csv:
        _print_table(("machine", "max_abs_err", "rmse", "t_at_max"),
                     list(rep.rows()), as_csv=True)
    else:
        print(rep.format())
    return 0


def _study_state(case, args):
    """State for ra/hmin studies: clearing state by default, the worst
    (largest reference-relative speed) state over --search-window when
    --state worst, or the exact equilibrium with --equilibrium."""
    if args.equilibrium:
        return {None: equilibrium_state(case.generators)}, 0.0
    state, t0 = _initial_state(case, args.dt)
    if args.state == "clearing":
        return {None: state}, t0
    rhs = SwingRhsParams.from_case(case, "post_fault")
    traj = integrate(rhs, state, args.search_window, IntegratorConfig(dt=args.dt), t0=t0)
    kind, ref_bus = _reference_arg(case, args.reference)
    if kind != "gen":
        raise ValidationError("--state worst needs a generator reference")
    ref_pos = case.generator_position(ref_bus)
    rel = np.abs(traj.omega_dev - traj.omega_dev[:, ref_pos:ref_pos + 1])
    per_machine = {}
    for pos, g in enumerate(case.generators):
        i = int(rel[:, pos].argmax())
        per_machine[g.bus] = MachineState(traj.delta[i], traj.omega_dev[i])
    return per_machine, t0


def _add_study_args(p):
    p.add_argument("--iloa-max", type=float, default=5.0)
    p.add_argument("--reference", default=None, help=_REFERENCE_HELP)
    p.add_argument("--state", choices=("clearing", "worst"), default="clearing",
                   help="which post-fault state feeds the estimate")
    p.add_argument("--search-window", type=float, default=1.2,
                   help="seconds of post-fault trajectory searched in --state worst")
    p.add_argument("--equilibrium", action="store_true",
                   help="estimate at the pre-fault equilibrium instead")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--csv", action="store_true")


def _study_inputs(case, args, states, buses=None):
    """(bus, RaInputs), lazily, of each machine at its study state against
    --reference: the machines at ``buses``, by default every machine but a
    generator reference."""
    kind, ref_bus = _reference_arg(case, args.reference)
    if buses is None:
        buses = [g.bus for g in case.generators
                 if not (kind == "gen" and g.bus == ref_bus)]
    if not buses:
        raise ValidationError("no generator other than the reference is left to estimate")
    return ((bus, ra_inputs_for_machine(case, bus, states.get(bus, states.get(None)),
                                        args.iloa_max, reference=(kind, ref_bus)))
            for bus in buses)


def cmd_ra(args) -> int:
    _check_positive(args, "iloa_max", "dt", "search_window")
    case = _load_case(args)
    states, _ = _study_state(case, args)
    results = [(bus, inp, estimate_ra(inp))
               for bus, inp in _study_inputs(case, args, states)]
    rows = [(bus, res.c1, res.c2, res.r_a, res.closed_form_discrepancy, res.root_status)
            for bus, _, res in results]
    _print_table(("machine", "c1", "c2", "R_A", "eq_closed_form_disc", "root_status"),
                 rows, as_csv=args.csv)
    r_a = system_ra(results)
    if math.isfinite(r_a):
        print(f"system R_A (min over machines): {r_a:.6g} s")
    else:
        print("system R_A: unbounded (no machine shows indicator growth)")
    return 0


def cmd_hmin(args) -> int:
    _check_positive(args, "iloa_max", "target_ra", "dt", "search_window")
    case = _load_case(args)
    states, _ = _study_state(case, args)
    chosen = None if args.fleet or args.machine is None else [args.machine]
    inputs = _study_inputs(case, args, states, chosen)
    results = [(bus, estimate_hmin(inp, args.target_ra))
               for bus, inp in itertools.islice(inputs, None if args.fleet else 1)]
    _print_table(("machine", "H_min_s"), results, as_csv=args.csv)
    if args.fleet:
        bus, hmax = max(results, key=lambda r: r[1])
        print(f"fleet H_min (largest per-machine value): {hmax:.6g} s (generator {bus})")
    return 0


def cmd_modes(args) -> int:
    case = _load_case(args)
    rhs = SwingRhsParams.from_case(case, args.epoch)
    eq = equilibrium_state(case.generators)
    # Post-switching epochs are linearized at the pre-fault operating point,
    # which is not their exact equilibrium.
    analysis = mode_periods(rhs, eq, require_equilibrium=(args.epoch == "pre_fault"))
    rows = [(i + 1, p, f) for i, (p, f) in
            enumerate(zip(analysis.periods, analysis.frequencies))]
    _print_table(("mode", "period_s", "omega_rad_s"), rows, as_csv=args.csv)
    return 0


def cmd_bench(args) -> int:
    _check_positive(args, "iloa_max", "window", "horizon", "dt")
    _check_counts(args, "n_terms")
    t0 = time.perf_counter()
    case = _load_case(args)
    rhs = SwingRhsParams.from_case(case, "post_fault")
    offline = time.perf_counter() - t0

    state, t_start = _initial_state(case, args.dt)
    window = args.window
    if window is None:
        window = _default_window(case, state, args)
    cfg = WindowConfig(t_init=window, n_terms=args.n_terms, i_loa_max=args.iloa_max)
    simulate_sas(rhs, state, args.horizon, cfg, t0=t_start)   # warm-up
    t0 = time.perf_counter()
    traj = simulate_sas(rhs, state, args.horizon, cfg, t0=t_start)
    sas_s = time.perf_counter() - t0
    windows = traj.window_boundaries.size
    if windows == 0:
        raise ValidationError(f"--horizon: {args.horizon!r} s covers no window")

    rk_cfg = IntegratorConfig(dt=args.dt, record_every=50)
    t0 = time.perf_counter()
    integrate(rhs, state, args.horizon, rk_cfg, t0=t_start)
    rk4_s = time.perf_counter() - t0

    online = sas_s / windows
    report = BenchReport(offline_setup_s=offline, online_eval_s=online,
                         rk4_s=rk4_s, speed_ratio_vs_rk4=rk4_s / sas_s,
                         windows=windows, t_over_tau=args.horizon / windows / online)
    if args.json:
        print(json.dumps(asdict(report), indent=1))
    else:
        print(f"offline setup:        {report.offline_setup_s * 1e3:.2f} ms")
        print(f"windows simulated:    {report.windows} of {window:.4g} s "
              f"over {args.horizon:.4g} s")
        print(f"online eval / window: {report.online_eval_s * 1e3:.4f} ms "
              f"(T/tau = {report.t_over_tau:.1f})")
        print(f"rk4 same horizon:     {report.rk4_s * 1e3:.2f} ms at dt={args.dt:g}")
        print(f"speed ratio vs rk4:   {report.speed_ratio_vs_rk4:.1f}x")
    return 0


# ---------------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """Exits 1, the input-problem code, on a usage error instead of
    argparse's 2, which here means a numerical failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="sas-transim",
        description="Transient-stability simulation with multistage "
                    "semi-analytic series windows")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one engine and write a trajectory CSV")
    _add_case_args(p)
    p.add_argument("--engine", choices=("sas", "rk4"), default="sas")
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--n-terms", type=int, default=5)
    p.add_argument("--window", type=float, default=None,
                   help="window length; default 0.4x the estimated accuracy window")
    p.add_argument("--iloa-max", type=float, default=5.0)
    p.add_argument("--adaptive", action="store_true")
    p.add_argument("--samples", type=int, default=3)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--record-every", type=int, default=1)
    p.add_argument("--out", default=None)
    p.add_argument("--relative", action="store_true",
                   help="also write a relative-angle CSV against the reference generator")
    p.add_argument("--reference", default=None, help=_REFERENCE_HELP)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="error report between two trajectory CSVs")
    p.add_argument("csv_a")
    p.add_argument("csv_b")
    p.add_argument("--reference", type=int, default=None,
                   help="1-based machine column for relative angles")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("ra", help="per-machine accuracy-window estimates")
    _add_case_args(p)
    _add_study_args(p)
    p.set_defaults(func=cmd_ra)

    p = sub.add_parser("hmin", help="minimum inertia for a target accuracy window")
    _add_case_args(p)
    _add_study_args(p)
    p.add_argument("--target-ra", type=float, required=True)
    p.add_argument("--fleet", action="store_true",
                   help="estimate every machine and report the largest H_min")
    p.add_argument("--machine", type=int, default=None)
    p.set_defaults(func=cmd_hmin)

    p = sub.add_parser("modes", help="small-signal oscillation periods")
    _add_case_args(p)
    p.add_argument("--epoch", choices=("pre_fault", "post_fault"), default="post_fault")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_modes)

    p = sub.add_parser("bench", help="time the series engine against RK4")
    _add_case_args(p)
    p.add_argument("--horizon", type=float, default=4.0)
    p.add_argument("--n-terms", type=int, default=3)
    p.add_argument("--window", type=float, default=None)
    p.add_argument("--iloa-max", type=float, default=5.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bench)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
