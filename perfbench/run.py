"""Work-precision and per-layer benchmark of sas_transim.

    python3 perfbench/run.py --workload ieee39-series --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``. The
seed draws the inputs (see ``workloads.py``). A run computes the fine-step
reference outside every timed region, runs one verifying pass, then runs
whole passes for ``--seconds``, each preceded by a few timed set-ups. Every
output is checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are calibrated (``clock.py``): each call's wall time is divided by a
fixed kernel's time measured around it and expressed in seconds of a
machine running at the reference speed, because raw times on a shared
virtual machine drift by tens of percent between runs. The printed table
also gives raw medians.

``--trace 0`` reports the end-to-end metrics:

``setup_s``        median time from case text to a ready post-fault model
                   and clearing state (parse, inertia set, initialization,
                   network reduction, fault-on bootstrap).
``pass_s``         one pass over the workload's studies: the sum of each
                   study's median time.
``tts_<tol>rad_s`` time to solution: the time at which the work-precision
                   front (each setting's median time against its max
                   relative-angle error to the reference) reaches the
                   tolerance; see ``time_to_solution``. A screening
                   study's angle output is its clearing state.
``study_s.p50/p90`` percentiles across the workload's studies of each
                   study's median time.
``peak_rss_mb``    the process's peak resident memory.

The share of studies that raised or failed a check (``fail_frac``) is
printed with the work-precision table; the JSON carries it as
``failed``/``attempted``. ``correct`` is false when a study raised, when a
check other than a series accuracy miss beyond the 0.2 s window failed
(see ``workloads.DECISIVE_MAX_WINDOW``), or when no setting reaches a
tolerance.

``--trace 1`` first runs untraced passes for half the time, then installs
the span tracer and runs traced iterations (one set-up and one pass each)
and, on ``screening``, two-thread ``fleet_ra`` repetitions. It reports the
per-layer metrics of ``tracer.per_layer`` and ``trace.overhead_s``, the
traced minus the untraced pass time. The spans are written to
``perfbench/out/`` at exit.
"""

from __future__ import annotations

import os

# One thread per process for BLAS and OpenMP, before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer as tracing
from clock import Clock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPS_PER_PASS = 3
THREADED_REPS = 9
TOLERANCES = (("tts_1e-3rad_s", 1e-3), ("tts_1e-6rad_s", 1e-6))


@dataclass
class Outcome:
    """Timings and verdicts of every study call in a run."""

    raw: dict[int, list[float]] = field(default_factory=dict)
    calibrated: dict[int, list[float]] = field(default_factory=dict)
    verdicts: dict[int, object] = field(default_factory=dict)
    outputs: dict[int, object] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    incorrect: bool = False


def _run_pass(studies, outcome: Outcome, verified: dict, clock: Clock,
              record: bool, tracer=None) -> float:
    """Run every study once; return the pass's summed calibrated time.
    Checks run outside the tracer's units."""
    total = 0.0
    for i, study in enumerate(studies):
        outcome.attempted += 1
        try:
            out, raw, calibrated = clock.time(study.run)
        except Exception as exc:   # any exception is a failed study
            outcome.failed += 1
            outcome.incorrect = True
            outcome.errors.append(f"{study.setting}: {type(exc).__name__}: {exc}")
            continue
        total += calibrated
        if record:
            outcome.raw.setdefault(i, []).append(raw)
            outcome.calibrated.setdefault(i, []).append(calibrated)
        else:
            outcome.outputs[i] = out
        key = study.fingerprint(out)
        if verified.get(i, (None,))[0] != key:
            unit = tracer.unit if tracer else None
            if tracer:
                tracer.unit = None
            verified[i] = (key, study.check(out))
            if tracer:
                tracer.unit = unit
        verdict = verified[i][1]
        outcome.verdicts[i] = verdict
        if not verdict.ok:
            outcome.failed += 1
            outcome.incorrect |= verdict.decisive
    return total


def _passes(studies, outcome, verified, clock, seconds, before_pass,
            tracer=None) -> list[tuple[float, float]]:
    """Whole passes until ``seconds`` have elapsed (at least one); returns
    each pass's calibrated time and calibration factor."""
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        mark = clock.mark()
        before_pass(len(passes))
        gc.collect()
        total = _run_pass(studies, outcome, verified, clock, True, tracer)
        passes.append((total, clock.scale_since(mark)))
    return passes


def time_to_solution(points, tol: float) -> float | None:
    """Time to reach ``tol`` on the work-precision front of ``points``,
    (median time, max error) per setting; None if no setting reaches it.

    The front keeps each setting more accurate than every faster one. The
    fastest front setting within ``tol`` is interpolated, log time linear
    in log error, towards its faster neighbour, which misses ``tol``: the
    time a setting just meeting ``tol`` would take. Without interpolation
    the value would jump by the grid's step (2x for RK4 at 50 -> 100 ms)
    whenever the seed moves a setting's error across ``tol``.
    """
    front = []
    for t, e in sorted(points):
        if not front or e < front[-1][1]:
            front.append((t, e))
    for k, (t1, e1) in enumerate(front):
        if e1 <= tol:
            if k == 0:
                return t1
            t0, e0 = front[k - 1]
            share = math.log(tol / e0) / math.log(max(e1, sys.float_info.min) / e0)
            return t0 * (t1 / t0) ** share
    return None


def machine_info(seed) -> dict:
    info = {"cpu": platform.processor() or platform.machine(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "seed": seed, "commit": _git_commit()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy
    info["numpy"] = numpy.__version__
    info["scipy"] = scipy.__version__
    return info


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(workload: str, seed: int | None, seconds: float, trace: bool,
        spans_path: Path | None = None) -> dict:
    """One benchmark run; returns the result object plus a ``details`` dict
    (work-precision rows, per-setting errors, counts) for reporting. A
    traced run writes its spans to ``spans_path`` when given."""
    import workloads   # needs the package on sys.path

    wl = workloads.WORKLOADS[workload]
    inputs = workloads.make_inputs(workload, seed)

    prep = workloads.setup(inputs)   # also warms lazy imports
    clock = Clock()
    setup_raw, setup_calibrated = [], []

    def timed_setups(_):
        # Spread over the run, so that set-up sees the same machine as passes.
        for _ in range(SETUP_REPS_PER_PASS):
            _, raw, calibrated = clock.time(lambda: workloads.setup(inputs))
            setup_raw.append(raw)
            setup_calibrated.append(calibrated)

    studies = wl.studies(prep, inputs)    # builds the reference: untimed
    outcome = Outcome()
    verified: dict = {}
    _run_pass(studies, outcome, verified, clock, record=False)   # verifying warm-up

    metrics = {}
    passes = _passes(studies, outcome, verified, clock,
                     seconds / 2 if trace else seconds, timed_setups)
    if trace:
        tr = tracing.Tracer()
        iterations = []

        def traced_setup(i):
            tr.unit = ("iteration", i)
            iterations.append(tr.unit)
            workloads.setup(inputs)

        tr.install()
        try:
            traced = _passes(studies, outcome, verified, clock, seconds / 2,
                             traced_setup, tracer=tr)
            scales = {u: scale for u, (_, scale) in zip(iterations, traced)}
            threaded = []
            if wl.threaded_calls:
                calls = wl.threaded_calls(list(outcome.outputs.values()))
                for r in range(THREADED_REPS):
                    tr.unit = ("jobs2", r)
                    threaded.append(tr.unit)
                    _, raw, calibrated = clock.time(lambda: [call() for call in calls])
                    scales[tr.unit] = calibrated / raw
            tr.unit = None
        finally:
            tr.uninstall()
        metrics = tracing.per_layer(tr, iterations, threaded, scales)
        metrics["trace.overhead_s"] = (statistics.median(t for t, _ in traced)
                                       - statistics.median(t for t, _ in passes))
        if spans_path is not None:
            spans_path.parent.mkdir(exist_ok=True)
            tr.write(spans_path)

    medians = {i: statistics.median(t) for i, t in outcome.calibrated.items()}
    rows = []
    for i, study in enumerate(studies):
        v = outcome.verdicts.get(i)
        raw = outcome.raw.get(i, [])
        rows.append({"engine": study.engine, "setting": study.setting,
                     "work": None if v is None else v.work,
                     "median_s": medians.get(i),
                     "raw_median_s": statistics.median(raw) if raw else None,
                     "samples": len(raw),
                     "error": None if v is None else v.error,
                     "ok": bool(v is not None and v.ok)})

    correct = not outcome.incorrect
    if not trace:
        per_study = list(medians.values())
        metrics["setup_s"] = statistics.median(setup_calibrated)
        metrics["pass_s"] = sum(per_study)
        by_setting = {}
        for i, study in enumerate(studies):
            v = outcome.verdicts.get(i)
            if v is not None and i in medians:
                times, error = by_setting.get(study.setting, ([], 0.0))
                by_setting[study.setting] = (times + outcome.calibrated[i],
                                             max(error, v.error))
        points = [(statistics.median(t), e) for t, e in by_setting.values()]
        for name, tol in TOLERANCES:
            metrics[name] = time_to_solution(points, tol)
            if metrics[name] is None:
                correct = False    # no setting reaches the tolerance
                metrics[name] = metrics["pass_s"]
        metrics["study_s.p50"] = statistics.median(per_study)
        metrics["study_s.p90"] = statistics.quantiles(per_study, n=10,
                                                      method="inclusive")[8]
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }
    details = {
        "rows": rows,
        "passes": len(passes),
        "fail_frac": outcome.failed / outcome.attempted,
        "exceptions": outcome.errors,
        "setup_reps": len(setup_raw),
        "setup_raw_median_s": statistics.median(setup_raw),
    }
    return {"result": result, "details": details}


def _unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in ("calls", "windows", "steps"):
        return "count"
    if last in ("useful_ratio", "estimate_ra_per_hmin"):
        return "ratio"
    if name.startswith("adm.derive_window.us.") or last == "us_per_step":
        return "us"
    if name == "peak_rss_mb":
        return "MB"
    return "s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sas_transim" / "__init__.py").is_file():
        print(f"error: the sas_transim package is not under {SRC}; run from "
              "a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    out = run(args.workload, args.seed, args.seconds, bool(args.trace),
              OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    details = out["details"]
    print("# machine " + json.dumps(machine_info(args.seed)))
    print(f"# workload {args.workload}")
    print(f"# {'engine':<10} {'setting':<13} {'work':>6} {'median_ms':>10} {'raw_ms':>10} "
          f"{'n':>4} {'max_err_rad':>12}  check")
    for r in details["rows"]:
        med, raw = ("-" if r[k] is None else f"{r[k] * 1e3:.3f}"
                    for k in ("median_s", "raw_median_s"))
        err = "-" if r["error"] is None else f"{r['error']:.3e}"
        print(f"# {r['engine']:<10} {r['setting']:<13} {r['work'] or '-':>6} {med:>10} "
              f"{raw:>10} {r['samples']:>4} {err:>12}  {'ok' if r['ok'] else 'FAIL'}")
    res = out["result"]
    print(f"# passes {details['passes']}, set-up repetitions {details['setup_reps']} "
          f"(raw median {details['setup_raw_median_s'] * 1e3:.3f} ms), "
          f"fail_frac {details['fail_frac']:.6g} ({res['failed']}/{res['attempted']} studies)")
    for msg in details["exceptions"][:5]:
        print(f"# exception {msg}")
    for name, m in res["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
