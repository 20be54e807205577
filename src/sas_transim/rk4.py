"""Fixed-step 4th-order Runge-Kutta reference for the swing equations.

This is the ground-truth engine the series windows are benchmarked against,
and the bootstrap that integrates the fault-on interval to produce the
post-disturbance initial state. Angles are never wrapped: loss of synchronism
shows up as unbounded growth, which is reported, not treated as an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .adm import MachineState, SwingRhsParams, equilibrium_state
from .errors import DivergenceError, ValidationError
from .mmadm import Trajectory
from .netmodel import PowerSystemCase, initialized_case

# Steps one integration may take; a longer horizon/dt is refused up front.
MAX_STEPS = 10 ** 6


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float = 1e-3            # fixed step, s
    record_every: int = 1       # steps between stored samples

    def __post_init__(self):
        if not (0 < self.dt and math.isfinite(self.dt)):
            raise ValidationError("dt must be positive and finite")
        if self.record_every < 1:
            raise ValidationError("record_every must be >= 1")


def swing_rhs(state: MachineState, rhs: SwingRhsParams):
    """Right-hand side (d delta/dt, d omega_dev/dt) at a state."""
    return state.omega_dev.copy(), rhs.acceleration(state.delta, state.omega_dev)


def _step(rhs: SwingRhsParams, delta, omega, dt):
    k1d = omega
    k1w = rhs.acceleration(delta, omega)
    k2d = omega + 0.5 * dt * k1w
    k2w = rhs.acceleration(delta + 0.5 * dt * k1d, k2d)
    k3d = omega + 0.5 * dt * k2w
    k3w = rhs.acceleration(delta + 0.5 * dt * k2d, k3d)
    k4d = omega + dt * k3w
    k4w = rhs.acceleration(delta + dt * k3d, k4d)
    delta = delta + (dt / 6.0) * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
    omega = omega + (dt / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
    return delta, omega


def integrate(rhs: SwingRhsParams, state0: MachineState, horizon: float,
              cfg: IntegratorConfig = IntegratorConfig(),
              t0: float = 0.0) -> Trajectory:
    """Classical RK4 with a fixed step; the last step is shortened to land
    exactly on the horizon. Samples are stored every ``record_every`` steps
    plus the final point. More than ``MAX_STEPS`` steps are refused."""
    if not (horizon > 0 and math.isfinite(horizon)):
        raise ValidationError(f"horizon must be positive and finite, got {horizon!r}")
    if state0.k != rhs.k:
        raise ValidationError("state size does not match machine count")
    dt = cfg.dt
    if horizon / dt > MAX_STEPS:
        raise ValidationError(
            f"horizon {horizon:g} s at dt {dt:g} s needs {horizon / dt:.3g} steps, "
            f"more than MAX_STEPS = {MAX_STEPS}")
    n_full = int(math.floor(horizon / dt + 1e-9))
    remainder = horizon - n_full * dt
    if remainder < 1e-12 * max(1.0, horizon):
        remainder = 0.0

    delta = state0.delta.copy()
    omega = state0.omega_dev.copy()
    times = [t0]
    deltas = [delta.copy()]
    omegas = [omega.copy()]
    # overflow to inf inside a step is how divergence is detected below
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_full + 1):
            delta, omega = _step(rhs, delta, omega, dt)
            if not (np.isfinite(delta).all() and np.isfinite(omega).all()):
                raise DivergenceError(
                    f"integration diverged at t={t0 + step * dt:.6g}s",
                    t=t0 + step * dt)
            if step % cfg.record_every == 0 or (step == n_full and remainder == 0.0):
                times.append(t0 + step * dt)
                deltas.append(delta.copy())
                omegas.append(omega.copy())
        if remainder > 0.0:
            delta, omega = _step(rhs, delta, omega, remainder)
            if not (np.isfinite(delta).all() and np.isfinite(omega).all()):
                raise DivergenceError(
                    f"integration diverged at t={t0 + horizon:.6g}s", t=t0 + horizon)
            times.append(t0 + horizon)
            deltas.append(delta.copy())
            omegas.append(omega.copy())
    return Trajectory(times=np.array(times), delta=np.array(deltas),
                      omega_dev=np.array(omegas), source="rk4")


def fault_on_bootstrap(case: PowerSystemCase,
                       cfg: IntegratorConfig = IntegratorConfig()):
    """Integrate the fault-on interval from the pre-fault equilibrium.

    Returns the machine state at the clearing instant (rotor state is
    continuous across the topology switch) and the fault-on trajectory.
    """
    case = initialized_case(case)
    ev = case.events
    if ev is None or ev.fault_bus is None:
        raise ValidationError("case has no fault event to bootstrap from")
    eq = equilibrium_state(case.generators)
    if ev.t_clear == ev.t_fault:
        traj = Trajectory(times=np.array([ev.t_fault]),
                          delta=eq.delta[None, :], omega_dev=eq.omega_dev[None, :],
                          source="rk4")
        return eq, traj
    rhs_fault = SwingRhsParams.from_case(case, "fault_on")
    try:
        traj = integrate(rhs_fault, eq, ev.t_clear - ev.t_fault, cfg, t0=ev.t_fault)
    except ValidationError as exc:
        raise ValidationError(
            f"fault-on interval events.t_clear - events.t_fault: {exc}") from exc
    return traj.final_state, traj


# ---------------------------------------------------------------------------
# Trajectory comparison


@dataclass(frozen=True)
class CompareReport:
    """Per-machine angle-error summary between two trajectories.

    Errors are absolute rotor-angle differences, or differences of angles
    relative to ``reference`` (machine position) when one is given. ``b``
    was resampled onto ``a``'s time grid by cubic interpolation.
    """

    times: np.ndarray
    max_abs_err: np.ndarray
    rmse: np.ndarray
    t_at_max: np.ndarray
    reference: int | None

    @property
    def overall_max(self) -> float:
        return float(self.max_abs_err.max())

    @property
    def overall_t(self) -> float:
        return float(self.t_at_max[int(self.max_abs_err.argmax())])

    def rows(self):
        for i in range(self.max_abs_err.size):
            yield (i + 1, float(self.max_abs_err[i]), float(self.rmse[i]),
                   float(self.t_at_max[i]))

    def format(self) -> str:
        ref = "absolute" if self.reference is None else f"relative to machine {self.reference + 1}"
        lines = [f"angle errors ({ref}), {self.times.size} compared samples",
                 f"{'machine':>8} {'max|d_delta|':>14} {'rmse':>12} {'t_at_max':>10}"]
        for m, mx, rm, tm in self.rows():
            lines.append(f"{m:>8d} {mx:>14.6g} {rm:>12.6g} {tm:>10.6g}")
        lines.append(f"overall max {self.overall_max:.6g} rad at t={self.overall_t:.6g}s")
        return "\n".join(lines)


def _resample(traj: Trajectory, times: np.ndarray) -> np.ndarray:
    if times.size == traj.times.size and np.array_equal(times, traj.times):
        return traj.delta
    if traj.times.size >= 4:
        return CubicSpline(traj.times, traj.delta, axis=0)(times)
    out = np.empty((times.size, traj.k))
    for i in range(traj.k):
        out[:, i] = np.interp(times, traj.times, traj.delta[:, i])
    return out


def compare(a: Trajectory, b: Trajectory,
            reference_machine: int | None = None) -> CompareReport:
    """Angle-error report of ``b`` against ``a`` over their common time range."""
    if a.k != b.k:
        raise ValidationError(f"machine counts differ ({a.k} vs {b.k})")
    lo = max(a.times[0], b.times[0])
    hi = min(a.times[-1], b.times[-1])
    if hi < lo - 1e-12:
        raise ValidationError("trajectories have disjoint time ranges")
    mask = (a.times >= lo - 1e-12) & (a.times <= hi + 1e-12)
    times = a.times[mask]
    if times.size == 0:
        raise ValidationError("no comparison samples in the overlapping range")
    da = a.delta[mask]
    db = _resample(b, times)
    if reference_machine is not None:
        if not (0 <= reference_machine < a.k):
            raise ValidationError(f"reference machine {reference_machine} out of range")
        da = da - da[:, reference_machine:reference_machine + 1]
        db = db - db[:, reference_machine:reference_machine + 1]
    err = np.abs(db - da)
    idx = err.argmax(axis=0)
    return CompareReport(
        times=times,
        max_abs_err=err.max(axis=0),
        rmse=np.sqrt((err ** 2).mean(axis=0)),
        t_at_max=times[idx],
        reference=reference_machine,
    )
