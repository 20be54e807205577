"""Multistage window driver: chain series windows over a simulation horizon.

Each window is derived from the previous window's end state, evaluated at a
handful of sample points, and optionally truncated early when the
loss-of-accuracy indicator (the derivative of the highest-order term)
crosses a threshold. Handoff between windows uses either the exact
polynomial derivative or the two-point backward difference.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from . import adm
from .adm import MachineState, SasWindow, SwingRhsParams, derive_window
from .adm import eval_window  # noqa: F401  (re-exported with the other window evaluators)
from .errors import DivergenceError, ValidationError

HANDOFF_MODES = ("analytic_derivative", "two_point")

# Windows one simulation may derive; a horizon that could need more (at the
# shortest window an adaptive cut leaves, t_init/100) is refused up front.
MAX_WINDOWS = 10 ** 5


@dataclass(frozen=True)
class WindowConfig:
    """Knobs of the multistage driver.

    ``samples_per_window`` counts evaluations per window including the window
    end; with the default 3 and two-point handoff the points sit at
    {T/2, T - T/100, T}, with analytic handoff at evenly spaced points ending
    at T (midpoint + end for the default).
    """

    t_init: float
    n_terms: int = 3
    i_loa_max: float = 5.0
    adaptive: bool = False
    samples_per_window: int = 3
    handoff_mode: str = "analytic_derivative"

    def __post_init__(self):
        if not (self.t_init > 0):
            raise ValidationError("t_init must be positive")
        if not (self.i_loa_max > 0):
            raise ValidationError("i_loa_max must be positive")
        if self.adaptive and self.n_terms < 3:
            raise ValidationError("the accuracy indicator needs at least 3 terms")
        if self.n_terms < 2:
            raise ValidationError("need at least 2 terms")
        if self.samples_per_window < 3:
            raise ValidationError("need at least 3 samples per window")
        if self.handoff_mode not in HANDOFF_MODES:
            raise ValidationError(f"handoff_mode must be one of {HANDOFF_MODES}")


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped machine states with provenance.

    ``delta`` and ``omega_dev`` are (n_samples, K) arrays of absolute rotor
    angles (rad) and speed deviations (rad/s).
    """

    times: np.ndarray
    delta: np.ndarray
    omega_dev: np.ndarray
    source: str
    window_boundaries: np.ndarray | None = None
    adaptive_cuts: int = 0

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        d = np.asarray(self.delta, dtype=float)
        w = np.asarray(self.omega_dev, dtype=float)
        if t.ndim != 1 or d.ndim != 2 or d.shape[0] != t.size or w.shape != d.shape:
            raise ValidationError("inconsistent trajectory array shapes")
        if t.size > 1 and not (np.diff(t) > 0).all():
            raise ValidationError("times must be strictly increasing")
        if not (np.isfinite(d).all() and np.isfinite(w).all()):
            raise ValidationError("trajectory contains non-finite states")
        for arr in (t, d, w):
            arr.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "delta", d)
        object.__setattr__(self, "omega_dev", w)

    @property
    def k(self) -> int:
        return self.delta.shape[1]

    def state(self, i: int) -> MachineState:
        return MachineState(self.delta[i], self.omega_dev[i])

    @property
    def final_state(self) -> MachineState:
        return self.state(-1)

    def relative_delta(self, machine: int) -> np.ndarray:
        """Angles relative to one machine (by position)."""
        return self.delta - self.delta[:, machine:machine + 1]

    def write_csv(self, target, reference: int | None = None) -> None:
        """Write ``t, delta_1..delta_K, omega_1..omega_K`` at 9 significant
        digits; with ``reference`` (machine position) angles become relative
        and columns are suffixed ``_ref``."""
        own = isinstance(target, (str, bytes))
        fh = open(target, "w", encoding="utf-8", newline="") if own else target
        try:
            k = self.k
            suffix = "_ref" if reference is not None else ""
            cols = ([f"delta_{i + 1}{suffix}" for i in range(k)]
                    + [f"omega_{i + 1}{suffix}" for i in range(k)])
            fh.write("t," + ",".join(cols) + "\n")
            delta = self.delta if reference is None else self.relative_delta(reference)
            omega = (self.omega_dev if reference is None
                     else self.omega_dev - self.omega_dev[:, reference:reference + 1])
            for row in range(self.times.size):
                vals = [self.times[row], *delta[row], *omega[row]]
                fh.write(",".join(f"{v:.9g}" for v in vals) + "\n")
        finally:
            if own:
                fh.close()

    def to_csv_text(self, reference: int | None = None) -> str:
        buf = io.StringIO()
        self.write_csv(buf, reference)
        return buf.getvalue()


def read_csv(path_or_file) -> Trajectory:
    """Read a trajectory CSV produced by :meth:`Trajectory.write_csv`."""
    own = isinstance(path_or_file, (str, bytes))
    fh = open(path_or_file, "r", encoding="utf-8") if own else path_or_file
    try:
        header = fh.readline().strip().split(",")
        if not header or header[0] != "t" or (len(header) - 1) % 2 != 0:
            raise ValidationError("not a trajectory CSV (bad header)")
        k = (len(header) - 1) // 2
        rows = [[float(v) for v in line.strip().split(",")]
                for line in fh if line.strip()]
    finally:
        if own:
            fh.close()
    if not rows:
        raise ValidationError("trajectory CSV has no samples")
    data = np.array(rows)
    if data.shape[1] != 1 + 2 * k:
        raise ValidationError("trajectory CSV has ragged rows")
    return Trajectory(times=data[:, 0], delta=data[:, 1:1 + k],
                      omega_dev=data[:, 1 + k:], source="file")


# ---------------------------------------------------------------------------
# Indicator, handoff, driver


def i_loa(w: SasWindow, t_local: float) -> float:
    """Loss-of-accuracy indicator: the largest per-machine magnitude of the
    highest-order term's derivative at a window-local time."""
    if not (-1e-12 <= t_local <= w.T + 1e-12):
        raise ValidationError(f"t_local={t_local} outside window [0, {w.T}]")
    return float(_loa(w, t_local).max())


def _loa(w: SasWindow, t_local) -> np.ndarray:
    """Per-machine indicator magnitudes; a column of times gives one row each."""
    return np.abs(adm._polyval(w.last_term_deriv, t_local))


def _two_point_speed(w: SasWindow, t_cut: float, delta: np.ndarray) -> np.ndarray:
    """Backward-difference speed over h = T/100 ending at ``t_cut``."""
    h = w.T / 100.0
    if not math.isfinite(h) or h <= 0:
        raise ValidationError("two_point handoff needs a finite window length")
    return (delta - adm._polyval(w.sum_coeffs, t_cut - h)) / h


def handoff_state(w: SasWindow, t_cut: float, mode: str = "analytic_derivative") -> MachineState:
    """State handed to the next window at the cut point.

    ``analytic_derivative`` evaluates the polynomial derivative exactly;
    ``two_point`` estimates the speed from a backward difference over
    h = T/100, mirroring evaluation schemes that only sample the angle series.
    """
    if not (0 < t_cut <= w.T + 1e-12):
        raise ValidationError(f"t_cut={t_cut} outside (0, {w.T}]")
    if mode not in HANDOFF_MODES:
        raise ValidationError(f"unknown handoff mode {mode!r}")
    delta = adm._polyval(w.sum_coeffs, t_cut)
    if mode == "analytic_derivative":
        omega = adm._polyval(w.sum_deriv, t_cut)
    else:
        omega = _two_point_speed(w, t_cut, delta)
    return MachineState(delta, omega)


def _sample_times(t_window: float, cfg: WindowConfig) -> np.ndarray:
    """Evaluation times inside one window, ending exactly on the window.

    Two-point mode adds T - T/100 before the end for the backward-difference
    handoff, matching the minimal three-point scheme {T/2, T - h, T}; in
    analytic mode the inherited window-start sample plays the role of the
    extra point, so the default is {start, T/2, T}.
    """
    base = np.linspace(0.0, t_window, cfg.samples_per_window)[1:]
    if cfg.handoff_mode == "two_point":
        base = np.sort(np.append(base, t_window * 0.99))
    return base


def simulate_sas(rhs: SwingRhsParams, state0: MachineState, horizon: float,
                 cfg: WindowConfig, t0: float = 0.0, ra_fn=None) -> Trajectory:
    """Chain series windows from ``state0`` until covering ``horizon`` seconds.

    With ``cfg.adaptive``, a window whose indicator crosses ``cfg.i_loa_max``
    at a sample point is truncated at the previous sample; a cut collapsing
    below t_init/100 raises, suggesting more terms or a shorter window.
    ``ra_fn`` (state -> accuracy window estimate), when given, re-tunes the
    window length after each adaptive cut. A horizon that could need more
    than ``MAX_WINDOWS`` windows is refused.
    """
    if not (horizon > 0 and math.isfinite(horizon)):
        raise ValidationError(f"horizon must be positive and finite, got {horizon!r}")
    shortest = cfg.t_init / 100.0 if cfg.adaptive else cfg.t_init
    if horizon / shortest > MAX_WINDOWS:
        raise ValidationError(
            f"horizon {horizon:g} s at t_init {cfg.t_init:g} s"
            f"{' (adaptive cuts to t_init/100)' if cfg.adaptive else ''} needs up to "
            f"{horizon / shortest:.3g} windows, more than MAX_WINDOWS = {MAX_WINDOWS}")
    t_end = horizon
    times = [np.array([t0])]
    deltas = [state0.delta[None, :]]
    omegas = [state0.omega_dev[None, :]]
    boundaries = []
    n_cuts = 0
    elapsed = 0.0
    state = state0
    t_window = cfg.t_init
    eps = 1e-12 * max(1.0, horizon)
    while elapsed < t_end - eps:
        t_w = min(t_window, t_end - elapsed)
        w = derive_window(rhs, state, cfg.n_terms, t_start=t0 + elapsed, window=t_w)
        samples = _sample_times(t_w, cfg)
        if cfg.adaptive:
            loa = _loa(w, samples[:, None])
            over = np.flatnonzero(loa.max(axis=1) > cfg.i_loa_max)
            if over.size:
                first = int(over[0])
                if first == 0 or samples[first - 1] < cfg.t_init / 100.0:
                    ts = samples[first]
                    machine = int(loa[first].argmax())
                    raise DivergenceError(
                        "series window collapsed below t_init/100 at "
                        f"t={t0 + elapsed + ts:.6g}s (machine {machine}); "
                        "raise n_terms or lower t_init",
                        t=t0 + elapsed + ts, machine=machine)
                samples = samples[:first]
                n_cuts += 1
        # The last sample kept is the cut; its state is handed to the next
        # window, with the speed re-estimated in two_point mode.
        cut = samples[-1]
        delta = adm._polyval(w.sum_coeffs, samples[:, None])
        omega = adm._polyval(w.sum_deriv, samples[:, None])
        if cfg.handoff_mode == "two_point":
            omega[-1] = _two_point_speed(w, cut, delta[-1])
        state = MachineState(delta[-1], omega[-1])
        times.append(t0 + elapsed + samples)
        deltas.append(delta)
        omegas.append(omega)
        elapsed += cut
        boundaries.append(t0 + elapsed)
        if cfg.adaptive and ra_fn is not None and cut < t_w:
            est = ra_fn(state)
            if est is not None and math.isfinite(est) and est > 0:
                t_window = min(cfg.t_init, 0.8 * est)
    return Trajectory(times=np.concatenate(times), delta=np.concatenate(deltas),
                      omega_dev=np.concatenate(omegas), source="sas",
                      window_boundaries=np.array(boundaries),
                      adaptive_cuts=n_cuts)
