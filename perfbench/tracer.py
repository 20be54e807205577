"""Span tracer wrapped around the library's public functions in a traced run.

``install`` replaces every binding of each traced function in the loaded
``sas_transim`` modules (a function imported into another module is bound
there too, e.g. ``derive_window`` in ``adm``, ``mmadm`` and ``ra``) with a
wrapper that records a span: name, start, end, parent span and the unit of
work (a traced iteration or a thread-pool repetition) it belongs to. Spans
stay in memory; ``write`` stores them when the run ends. ``uninstall``
restores the original bindings. Nothing in the library itself changes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

TRACED = {
    "netmodel": ("parse_case", "initialized_case", "kron_reduce"),
    "adm": ("derive_window",),
    "mmadm": ("simulate_sas", "eval_window", "handoff_state"),
    "rk4": ("integrate", "fault_on_bootstrap"),
    "ra": ("fleet_ra", "ra_inputs_for_machine", "estimate_ra", "estimate_hmin",
           "mode_periods"),
}
PACKAGE = "sas_transim"


def _tag(name: str, args, kwargs, result):
    """Per-span detail: the (K, N) of a derivation, the steps of an
    integration, or a key identifying the input of work whose repeats are
    counted as waste."""
    if name == "adm.derive_window":
        rhs = args[0]
        n_terms = args[2] if len(args) > 2 else kwargs["n_terms"]
        return f"K{rhs.k}N{n_terms}"
    if name == "rk4.integrate":
        return int(result.times.size - 1)   # every call records each step
    if name == "netmodel.kron_reduce":
        y = args[0]
        keep = args[1] if len(args) > 1 else kwargs["keep"]
        h = hashlib.blake2b(y.tobytes(), digest_size=16)
        h.update(repr(list(keep)).encode())
        return h.hexdigest()
    if name == "netmodel.initialized_case":
        return hash(result)   # same initialized case, same initialization
    return None


class Tracer:
    def __init__(self):
        # [name, start_ns, end_ns, parent index, unit, tag]
        self.spans: list[list] = []
        self.unit = None          # spans are recorded only while this is set
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod_name, names in TRACED.items():
            owner = sys.modules[f"{PACKAGE}.{mod_name}"]
            for fname in names:
                orig = getattr(owner, fname)
                wrapper = self._wrap(f"{mod_name}.{fname}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._saved.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            unit = self.unit
            if unit is None:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else None
            with self._lock:
                idx = len(self.spans)
                self.spans.append(None)
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            self.spans[idx] = [name, start, end, parent, unit,
                               _tag(name, args, kwargs, result)]
            return result
        return wrapper

    # -- analysis ----------------------------------------------------------

    def self_ns(self) -> list[int]:
        """Each span's duration minus the time its child spans cover."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s is not None and s[3] is not None:
                child[s[3]] += s[2] - s[1]
        return [(s[2] - s[1] - c) if s is not None else 0
                for s, c in zip(self.spans, child)]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                if s is None:
                    continue
                name, start, end, parent, unit, tag = s
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "unit": list(unit), "tag": tag}) + "\n")


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


KN_KEYS = ("K10N3", "K10N4", "K10N5", "K10N6", "K10N8", "K2N3")


def per_layer(tracer: Tracer, iterations: list, threaded: list,
              scales: dict) -> dict[str, float]:
    """Per-layer figures of a traced run.

    A traced iteration is one set-up followed by one pass. Counts, useful
    ratios (distinct inputs per call) and busy seconds are per iteration;
    counts and ratios come from the first iteration (they repeat exactly).
    Seconds are medians over iterations and ``us.KxNy`` the median over
    iterations of the median per call, each scaled by its unit's
    calibration factor in ``scales`` (see ``clock.py``). ``threaded`` are
    the units of the two-thread ``fleet_ra`` repetitions.
    """
    spans = tracer.spans          # a call that raised left None
    self_ns = tracer.self_ns()
    by_unit = defaultdict(list)
    for i, s in enumerate(spans):
        if s is not None:
            by_unit[s[4]].append(i)

    def calls(unit, name):
        return [i for i in by_unit[unit] if spans[i][0] == name]

    def parent_name(i):
        return None if spans[i][3] is None else spans[spans[i][3]][0]

    def busy_s(name, units=iterations, self_time=False):
        return _median([sum(self_ns[i] if self_time else spans[i][2] - spans[i][1]
                            for i in calls(u, name)) * 1e-9 * scales[u]
                        for u in units])

    first = iterations[0]

    def count(name, parent=None):
        return sum(1 for i in calls(first, name)
                   if parent is None or parent_name(i) == parent)

    def useful(name):
        tags = [spans[i][5] for i in calls(first, name)]
        return len(set(tags)) / len(tags) if tags else 0.0

    def per_call_us(key):
        per_unit = []
        for u in iterations:
            durs = [spans[i][2] - spans[i][1] for i in calls(u, "adm.derive_window")
                    if spans[i][5] == key]
            if durs:
                per_unit.append(statistics.median(durs) * 1e-3 * scales[u])
        return _median(per_unit)

    hmin_calls = count("ra.estimate_hmin")
    steps = sum(spans[i][5] for i in calls(first, "rk4.integrate"))
    integrate_s = busy_s("rk4.integrate")
    out = {
        "netmodel.parse_case.s": busy_s("netmodel.parse_case"),
        "netmodel.initialized_case.calls": count("netmodel.initialized_case"),
        "netmodel.initialized_case.s": busy_s("netmodel.initialized_case"),
        "netmodel.initialized_case.useful_ratio": useful("netmodel.initialized_case"),
        "netmodel.kron_reduce.calls": count("netmodel.kron_reduce"),
        "netmodel.kron_reduce.s": busy_s("netmodel.kron_reduce"),
        "netmodel.kron_reduce.useful_ratio": useful("netmodel.kron_reduce"),
        "adm.derive_window.calls": count("adm.derive_window"),
    }
    out.update({f"adm.derive_window.us.{key}": per_call_us(key) for key in KN_KEYS})
    out.update({
        "mmadm.simulate_sas.s": busy_s("mmadm.simulate_sas"),
        "mmadm.windows": count("adm.derive_window", parent="mmadm.simulate_sas"),
        "mmadm.eval_window.calls": count("mmadm.eval_window"),
        "mmadm.handoff_state.calls": count("mmadm.handoff_state"),
        "mmadm.driver_self_s": busy_s("mmadm.simulate_sas", self_time=True),
        "rk4.integrate.s": integrate_s,
        "rk4.steps": steps,
        "rk4.us_per_step": integrate_s / steps * 1e6 if steps else 0.0,
        "rk4.fault_on_bootstrap.s": busy_s("rk4.fault_on_bootstrap"),
        "ra.fleet_ra.s": busy_s("ra.fleet_ra"),
        "ra.fleet_ra.s.jobs2": busy_s("ra.fleet_ra", units=threaded),
        "ra.ra_inputs_for_machine.calls": count("ra.ra_inputs_for_machine"),
        "ra.ra_inputs_for_machine.s": busy_s("ra.ra_inputs_for_machine"),
        "ra.estimate_ra.calls": count("ra.estimate_ra"),
        "ra.estimate_ra.s": busy_s("ra.estimate_ra"),
        "ra.estimate_hmin.calls": hmin_calls,
        "ra.estimate_hmin.s": busy_s("ra.estimate_hmin"),
        "ra.estimate_ra_per_hmin": (count("ra.estimate_ra", parent="ra.estimate_hmin")
                                    / hmin_calls if hmin_calls else 0.0),
        "ra.mode_periods.s": busy_s("ra.mode_periods"),
    })
    return out
