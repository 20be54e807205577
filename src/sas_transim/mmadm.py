"""Multistage window driver: chain series windows over a simulation horizon.

Each window is derived from the previous window's end state, evaluated at a
handful of evenly spaced sample points, and optionally truncated early when
the loss-of-accuracy indicator (the derivative of the highest-order term)
crosses a threshold. The state handed to the next window is the window
polynomial and its exact derivative at the cut.

A run derives and evaluates every window in one workspace allocated before
the first: ``adm._derivation``'s buffers and an evaluation block whose
indicator row exists only in adaptive runs. ``eval_window``,
``handoff_state`` and ``i_loa`` read a window's own block the same way.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from . import adm
from .adm import MachineState, SasWindow, SwingRhsParams
from .adm import derive_window, eval_window  # noqa: F401  (re-exported with the window functions)
from .errors import DivergenceError, ValidationError, check_count

# Windows one simulation may derive; a horizon that could need more (at the
# shortest window an adaptive cut leaves, t_init/100) is refused up front.
MAX_WINDOWS = 10 ** 5
# Recorded samples one simulation may hold: the windows counted for
# MAX_WINDOWS times samples_per_window, refused up front as well.
MAX_SAMPLES = 10 ** 6
# Terms per window: one ieee39 derivation at the cap takes about 30 ms on
# 2 vCPUs (3 ms at 20 terms), and the cost grows about as n_terms^3 there.
MAX_N_TERMS = 40


@dataclass(frozen=True)
class WindowConfig:
    """Knobs of the multistage driver.

    ``samples_per_window`` counts evenly spaced points per window, the window
    start included; the start is the previous window's end and is not
    evaluated again, so the default 3 evaluates at T/2 and T.
    """

    t_init: float
    n_terms: int = 3
    i_loa_max: float = 5.0
    adaptive: bool = False
    samples_per_window: int = 3

    def __post_init__(self):
        if not (self.t_init > 0 and math.isfinite(self.t_init)):
            raise ValidationError(
                f"t_init must be positive and finite, got {self.t_init!r}")
        if not (self.i_loa_max > 0 and math.isfinite(self.i_loa_max)):
            raise ValidationError(
                f"i_loa_max must be positive and finite, got {self.i_loa_max!r}")
        check_count(self.n_terms, "n_terms", 2)
        check_count(self.samples_per_window, "samples_per_window", 3)
        if self.adaptive and self.n_terms < 3:
            raise ValidationError("the accuracy indicator needs at least 3 terms")
        if self.n_terms > MAX_N_TERMS:
            raise ValidationError(
                f"n_terms {self.n_terms} is more than MAX_N_TERMS = {MAX_N_TERMS}")


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
        if k == 0:
            raise ValidationError("trajectory CSV has no machine columns")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            cells = line.strip().split(",")
            if len(cells) != len(header):
                raise ValidationError(f"trajectory CSV line {lineno}: "
                                      f"{len(cells)} cells, expected {len(header)}")
            try:
                rows.append([float(v) for v in cells])
            except ValueError as exc:
                raise ValidationError(f"trajectory CSV line {lineno}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"trajectory CSV is not UTF-8 text ({exc.reason})") from None
    finally:
        if own:
            fh.close()
    if not rows:
        raise ValidationError("trajectory CSV has no samples")
    data = np.array(rows)
    return Trajectory(times=data[:, 0], delta=data[:, 1:1 + k],
                      omega_dev=data[:, 1 + k:], source="file")


# ---------------------------------------------------------------------------
# Indicator, handoff, driver


def i_loa(w: SasWindow, t_local: float) -> float:
    """Loss-of-accuracy indicator: the largest per-machine magnitude of the
    highest-order term's derivative at a window-local time."""
    return float(np.abs(adm._evaluate(w, t_local, slice(2, 3))).max())


def handoff_state(w: SasWindow, t_cut: float) -> MachineState:
    """State handed to the next window at the cut point: the window
    polynomial and its exact derivative there."""
    return MachineState(*adm._evaluate(w, t_cut, slice(2), cut=True))


def simulate_sas(rhs: SwingRhsParams, state0: MachineState, horizon: float,
                 cfg: WindowConfig, t0: float = 0.0) -> Trajectory:
    """Chain series windows from ``state0`` until covering ``horizon`` seconds.

    With ``cfg.adaptive``, a window whose indicator crosses ``cfg.i_loa_max``
    at a sample point is truncated at the previous sample; a cut collapsing
    below t_init/100 raises, suggesting more terms or a shorter window. A
    horizon that could need more than ``MAX_WINDOWS`` windows, or record more
    than ``MAX_SAMPLES`` samples, is refused. A window whose coefficients
    or kept samples are not finite raises ``DivergenceError``.
    """
    if not (horizon > 0 and math.isfinite(horizon)):
        raise ValidationError(f"horizon must be positive and finite, got {horizon!r}")
    shortest = cfg.t_init / 100.0 if cfg.adaptive else cfg.t_init
    if horizon / shortest > MAX_WINDOWS:
        raise ValidationError(
            f"horizon {horizon:g} s at t_init {cfg.t_init:g} s"
            f"{' (adaptive cuts to t_init/100)' if cfg.adaptive else ''} needs up to "
            f"{horizon / shortest:.3g} windows, more than MAX_WINDOWS = {MAX_WINDOWS}")
    samples = horizon / shortest * cfg.samples_per_window
    if samples > MAX_SAMPLES:
        raise ValidationError(
            f"{cfg.samples_per_window} samples per window over up to "
            f"{horizon / shortest:.3g} windows is {samples:.3g} samples, more than "
            f"MAX_SAMPLES = {MAX_SAMPLES}")
    if state0.delta.shape != rhs.h.shape:
        raise ValidationError("state size does not match machine count")
    t_end = horizon
    times = [np.array([t0])]
    deltas = [state0.delta[None, :]]
    omegas = [state0.omega_dev[None, :]]
    boundaries = []
    n_cuts = 0
    elapsed = 0.0
    delta, omega = state0.delta, state0.omega_dev
    eps = 1e-12 * max(1.0, horizon)
    derive = adm._derivation(rhs, cfg.n_terms)
    block = np.zeros((3 if cfg.adaptive else 2, rhs.k, 2 * cfg.n_terms + 1))
    live = block[..., :2 * cfg.n_terms - 1]   # Horner from coefficient 2N - 2
    grid = np.linspace(0.0, cfg.t_init, cfg.samples_per_window)[1:]
    with np.errstate(over="ignore", invalid="ignore"):   # the checks below catch inf
        while elapsed < t_end - eps:
            t_w = min(cfg.t_init, t_end - elapsed)
            adm._fill_block(derive(delta, omega, t0 + elapsed), block)
            samples = grid
            if t_w != cfg.t_init:   # a shorter last window
                samples = np.linspace(0.0, t_w, cfg.samples_per_window)[1:]
            # vals[i] holds angles, speeds and, when adaptive, indicator
            # values at samples[i]
            vals = adm._polyval(live, samples[:, None, None])
            if cfg.adaptive:
                loa = np.abs(vals[:, 2])
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
                    vals = vals[:first]
                    n_cuts += 1
            finite = np.isfinite(vals[:, :2])
            if not finite.all():
                i, _, machine = (int(j) for j in np.argwhere(~finite)[0])
                ts = t0 + elapsed + samples[i]
                raise DivergenceError(f"non-finite series sample at t={ts:.6g}s, "
                                      f"machine {machine}", t=ts, machine=machine)
            times.append(t0 + elapsed + samples)
            deltas.append(vals[:, 0])
            omegas.append(vals[:, 1])
            delta, omega = vals[-1, 0], vals[-1, 1]   # the cut starts the next window
            elapsed += samples[-1]
            boundaries.append(t0 + elapsed)
    return Trajectory(times=np.concatenate(times), delta=np.concatenate(deltas),
                      omega_dev=np.concatenate(omegas), source="sas",
                      window_boundaries=np.array(boundaries),
                      adaptive_cuts=n_cuts)
