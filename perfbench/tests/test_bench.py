"""Checks of the benchmark itself: its error measure, its reference, its
determinism and its tracer.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
import tracer as tracing
import workloads
from sas_transim import adm, mmadm, ra, rk4

BENCH = Path(bench.__file__).resolve().parent


@pytest.fixture(scope="module")
def unperturbed():
    """Published modified inertias and the shipped clearing time."""
    prep = workloads.setup(workloads.make_inputs("ieee39-series", None))
    return prep, workloads.reference_trajectory(prep)


@pytest.mark.parametrize("engine,setting,expected", [
    ("rk4", 50e-3, "8.53e-05"),
    ("rk4", 100e-3, "1.35e-03"),
    ("series", (3, 0.05), "7.80e-04"),
    ("series", (5, 0.2), "3.35e-05"),
])
def test_work_precision_errors_at_engine_output_times(unperturbed, engine, setting,
                                                      expected):
    prep, ref = unperturbed
    if engine == "rk4":
        traj = rk4.integrate(prep.rhs, prep.state, workloads.HORIZON,
                             rk4.IntegratorConfig(dt=setting), t0=prep.t0)
    else:
        n, t = setting
        traj = mmadm.simulate_sas(prep.rhs, prep.state, workloads.HORIZON,
                                  mmadm.WindowConfig(t_init=t, n_terms=n), t0=prep.t0)
    err = workloads.angle_error(traj, ref, prep.reference_machine)
    assert f"{err:.2e}" == expected


def test_reference_is_converged(unperturbed):
    prep, ref = unperturbed
    finer = workloads.reference_trajectory(prep, dt=workloads.REFERENCE_DT / 2)
    assert workloads.angle_error(ref, finer, prep.reference_machine) < 1e-9


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_counts_errors_and_failures(workload):
    def summary(out):
        metrics = out["result"]["metrics"]
        counts = {k: m["value"] for k, m in metrics.items()
                  if m["unit"] in ("count", "ratio")}
        errors = [(r["setting"], r["error"], r["ok"]) for r in out["details"]["rows"]]
        return counts, errors, out["details"]["fail_frac"]

    first = bench.run(workload, 3, 0.01, trace=True)
    second = bench.run(workload, 3, 0.01, trace=True)
    assert first["result"]["correct"]
    assert summary(first) == summary(second)


def test_seed_draws_the_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.make_inputs(name, 1) == workloads.make_inputs(name, 1)
        assert workloads.make_inputs(name, 1) != workloads.make_inputs(name, 2)
    a, b = (workloads.make_inputs("screening", s) for s in (1, 2))
    assert a.variants != b.variants and len(set(map(str, a.variants))) == len(a.variants)


def test_tracer_wraps_every_binding_and_restores_them():
    import sas_transim
    bindings = [(adm, "derive_window"), (mmadm, "derive_window"), (ra, "derive_window"),
                (sas_transim, "derive_window"), (ra, "kron_reduce"),
                (ra, "initialized_case"), (rk4, "initialized_case"),
                (adm, "initialized_case")]
    originals = [getattr(m, n) for m, n in bindings]
    tr = tracing.Tracer()
    tr.install()
    try:
        wrapped = [getattr(m, n) for m, n in bindings]
        assert all(w is not o for w, o in zip(wrapped, originals))
        assert all(w.__wrapped__ is o for w, o in zip(wrapped, originals))
    finally:
        tr.uninstall()
    assert [getattr(m, n) for m, n in bindings] == originals


def test_self_time_subtracts_children():
    tr = tracing.Tracer()
    tr.spans = [["a", 0, 100, None, "u", None], ["b", 10, 40, 0, "u", None],
                ["c", 50, 60, 0, "u", None], ["d", 12, 20, 1, "u", None]]
    assert tr.self_ns() == [60, 22, 10, 8]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "screening", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_time_to_solution_reads_the_front_continuously():
    points = [(8e-3, 8.5e-5), (4e-3, 1.35e-3), (20e-3, 2e-6), (9e-3, 5e-3)]
    assert bench.time_to_solution(points, 1e-8) is None
    assert bench.time_to_solution(points, 1e-2) == 4e-3
    assert 4e-3 < bench.time_to_solution(points, 1e-3) < 8e-3
    just_below = [(8e-3, 8.5e-5), (4e-3, 1e-3 * (1 - 1e-9))]
    just_above = [(8e-3, 8.5e-5), (4e-3, 1e-3 * (1 + 1e-9))]
    assert bench.time_to_solution(just_below, 1e-3) == pytest.approx(
        bench.time_to_solution(just_above, 1e-3), rel=1e-6)
