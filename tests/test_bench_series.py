"""The benchmark's series studies fail only where they are known to, on seeds
1 and 25.

``perfbench/workloads.py`` counts an ``ieee39-series`` study as failed when
its relative-angle error against the dt = 1e-4 RK4 reference exceeds
``ANGLE_BOUND`` (0.05 rad). At seed 1 only ``N=3 T=0.4`` fails: a 0.4 s
window lies beyond the engine's accuracy window, so that miss is not
decisive. Every decisive setting (T <= 0.2 s) must pass. The failed share
is deterministic at a fixed seed, so any change to it means that some
study's numbers changed. Seeds 20, 25, 26 and 30 also fail ``N=4 T=0.4``
(errors 0.0504-0.0523 rad), a 2/18 share that is the known baseline, not a
regression. At seed 44 ``N=4 T=0.4`` passes 1.6e-8 rad inside the bound.
Each check costs about 1.5 s, mostly the reference run.
"""

from test_bench_screening import _workloads


def _series_errors(seed):
    """Each setting's angle error at ``seed`` and the set that fails the
    bound; every decisive setting must pass."""
    wl = _workloads()
    inputs = wl.make_inputs("ieee39-series", seed)
    prep = wl.setup(inputs)
    failed, errors = set(), {}
    for study in wl.series_studies(prep, inputs):
        verdict = study.check(study.run())
        errors[study.setting] = verdict.error
        if not verdict.ok:
            failed.add(study.setting)
        if verdict.decisive:
            assert verdict.ok, (study.setting, verdict.error)
    return failed, errors


def test_seed_1_series_failures_are_the_known_one():
    assert _series_errors(1)[0] == {"N=3 T=0.4"}


def test_seed_25_series_failures_are_the_known_two():
    """At seed 25 ``N=4 T=0.4`` misses the bound by 0.0504 rad, the closest
    call on the 0.05 rad bound over seeds 1-30, so a kernel change that
    moves the series errors beyond round-off changes this failing set."""
    assert _series_errors(25)[0] == {"N=3 T=0.4", "N=4 T=0.4"}


def test_seed_44_series_passes_within_a_hair_of_the_bound():
    """At seed 44 ``N=4 T=0.4`` passes at 0.049999984 rad, 1.6e-8 rad
    inside the bound and the closest pass over seeds 1-60, so a series
    change beyond round-off trips this check before the benchmark's failed
    share moves."""
    failed, errors = _series_errors(44)
    assert failed == {"N=3 T=0.4"}
    assert 0.0499 < errors["N=4 T=0.4"] <= _workloads().ANGLE_BOUND
