"""Command-line surface: flows, formats, exit codes, determinism."""

import json
import os
import shlex
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import sas_transim

from sas_transim.cli import build_parser, main
from sas_transim.mmadm import MAX_N_TERMS, read_csv
from sas_transim.netmodel import CASE_DIR_ENV


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_exit(capsys, *argv):
    """Like ``run`` for an argv that argparse ends with SystemExit."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def test_simulate_smib_initial_row(tmp_path, capsys):
    """The single-machine run starts exactly at the case's published
    post-disturbance state."""
    out = tmp_path / "smib.csv"
    rc, _, _ = run(capsys, "simulate", "smib", "--engine", "sas",
                   "--n-terms", "5", "--window", "0.17", "--horizon", "3",
                   "--out", str(out))
    assert rc == 0
    traj = read_csv(str(out))
    assert traj.times[0] == 0.0
    assert traj.delta[0, 0] == pytest.approx(1.0472 + 0.0957, abs=1e-9)
    assert traj.omega_dev[0, 0] == pytest.approx(3.7639, abs=1e-9)
    assert traj.times[-1] == pytest.approx(3.0, abs=1e-9)


@pytest.mark.parametrize("argv, named", [
    (("smib", "--engine", "sas", "--horizon", "0"), "horizon"),
    (("ieee9", "--horizon", "nan"), "--horizon"),
    (("ieee9", "--horizon", "inf"), "--horizon"),
    (("ieee9", "--engine", "rk4", "--horizon", "nan"), "--horizon"),
    (("ieee9", "--engine", "rk4", "--horizon", "inf"), "--horizon"),
    (("ieee9", "--horizon", "0.5", "--window", "0.1", "--adaptive",
      "--iloa-max", "nan"), "i_loa_max"),
    (("ieee9", "--engine", "rk4", "--horizon", "0.05", "--relative",
      "--reference", "bus:5"), "--relative"),
], ids=["zero", "sas-nan", "sas-inf", "rk4-nan", "rk4-inf", "iloa-nan", "relative-bus"])
def test_simulate_rejects_zero_horizon(tmp_path, monkeypatch, capsys, argv, named):
    """Also non-finite numbers, and relative angles against a network bus:
    none of them may start a run."""
    monkeypatch.chdir(tmp_path)   # where a wrongly accepted run writes its CSV
    rc, _, err = run(capsys, "simulate", *argv)
    assert rc == 1
    assert named in err and "Traceback" not in err


def _ieee9_clearing_at(tmp_path, t_clear):
    doc = json.loads(resources.files("sas_transim").joinpath("cases/ieee9.json")
                     .read_text(encoding="utf-8"))
    doc["events"]["t_clear"] = t_clear
    path = tmp_path / "ieee9_late.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("argv, named", [
    (("simulate", "smib", "--engine", "rk4", "--horizon", "1e9"), "MAX_STEPS"),
    (("simulate", "ieee9", "--horizon", "0.5", "--window", "1e-9"), "MAX_WINDOWS"),
    (("simulate", "LATE", "--horizon", "1"), "events.t_clear"),
    (("simulate", "ieee9", "--horizon", "0.5", "--window", "0.1",
      "--n-terms", str(MAX_N_TERMS + 1)), "MAX_N_TERMS"),
    (("simulate", "ieee9", "--horizon", "1", "--window", "0.1",
      "--samples", "200000"), "MAX_SAMPLES"),
], ids=["rk4-steps", "sas-windows", "fault-on-steps", "sas-terms", "sas-samples"])
def test_unbounded_work_is_refused_up_front(tmp_path, argv, named):
    """Work beyond the step or window budget exits 1 before it starts; run
    in a subprocess so that a regression fails instead of hanging."""
    argv = [_ieee9_clearing_at(tmp_path, 1e300) if a == "LATE" else a for a in argv]
    src = os.path.dirname(os.path.dirname(sas_transim.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "sas_transim.cli", *argv,
                           "--out", str(tmp_path / "out.csv")],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=10)
    assert proc.returncode == 1, proc.stderr
    assert named in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, named", [
    (("simulate", "ieee9", "--horizon", "abc"), "--horizon"),
    (("simulate", "ieee9"), "--horizon"),
    (("simulate", "smib", "--horizon", "1", "--handoff", "two-point"), "--handoff"),
], ids=["bad-float", "missing-horizon", "handoff"])
def test_usage_error_exits_1(tmp_path, monkeypatch, capsys, argv, named):
    """A usage error is an input problem (exit 1), not a numerical failure
    (exit 2). The analytic derivative is the only handoff, so --handoff is
    an unknown option."""
    monkeypatch.chdir(tmp_path)   # where a wrongly accepted run writes its CSV
    code, text, err = run_exit(capsys, *argv)
    assert code == 1
    assert "usage:" in err and named in err and "Traceback" not in err
    assert text == "" and os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv, named", [
    (("simulate", "smib", "--horizon", "1", "--n-terms", "1"), "--n-terms"),
    (("bench", "smib", "--horizon", "1", "--n-terms", "1"), "--n-terms"),
    (("simulate", "smib", "--horizon", "1", "--n-terms", str(MAX_N_TERMS + 1)), "--n-terms"),
    (("simulate", "smib", "--horizon", "1", "--samples", "2"), "--samples"),
    (("simulate", "smib", "--horizon", "1", "--engine", "rk4", "--record-every", "0"),
     "--record-every"),
], ids=["simulate-one-term", "bench-one-term", "too-many-terms", "two-samples",
        "record-every-0"])
def test_integer_options_are_named_when_refused(tmp_path, monkeypatch, capsys, argv, named):
    monkeypatch.chdir(tmp_path)   # where a wrongly accepted run writes its CSV
    rc, text, err = run(capsys, *argv)
    assert rc == 1
    assert err.startswith(f"error: {named}:") and "Traceback" not in err
    assert text == "" and os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [("--help",), ("--version",), ("simulate", "--help")])
def test_help_and_version_exit_0(capsys, argv):
    code, text, _ = run_exit(capsys, *argv)
    assert code == 0 and text


def test_readme_examples_parse():
    """Every ``sas-transim`` line of the README, joined with its backslash
    continuations, parses with the current command line."""
    lines = iter((Path(__file__).resolve().parents[1] / "README.md")
                 .read_text(encoding="utf-8").splitlines())
    commands = set()
    for line in lines:
        if not line.startswith("sas-transim "):
            continue
        while line.endswith("\\"):
            line = line[:-1] + next(lines)
        args = build_parser().parse_args(shlex.split(line)[1:])
        commands.add(args.command)
    assert commands == {"simulate", "compare", "ra", "hmin", "modes", "bench"}


@pytest.mark.parametrize("argv", [
    ("ra", "smib", "--iloa-max", "inf"),
    ("hmin", "smib", "--target-ra", "0.2", "--iloa-max", "inf"),
    ("simulate", "smib", "--horizon", "1", "--adaptive", "--iloa-max", "inf"),
], ids=["ra", "hmin", "simulate"])
def test_infinite_iloa_max_is_refused(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)   # where a wrongly accepted run writes its CSV
    rc, text, err = run(capsys, *argv)
    assert rc == 1
    assert "i_loa_max" in err and "Traceback" not in err
    assert text == ""


@pytest.mark.parametrize("argv, named", [
    (("simulate", "ieee9", "--horizon", "1", "--window", "inf"), "--window"),
    (("simulate", "ieee9", "--horizon", "1", "--window", "nan"), "--window"),
    (("bench", "ieee9", "--horizon", "1", "--window", "inf"), "--window"),
    (("bench", "ieee9", "--horizon", "nan", "--window", "0.1"), "--horizon"),
    (("ra", "ieee9", "--state", "worst", "--search-window", "nan"), "--search-window"),
    (("ra", "ieee9", "--state", "worst", "--search-window", "-1"), "--search-window"),
    (("hmin", "ieee9", "--target-ra", "0.2", "--state", "worst",
      "--search-window", "nan"), "--search-window"),
    (("hmin", "ieee9", "--target-ra", "0.2", "--state", "worst",
      "--search-window", "-1"), "--search-window"),
    (("simulate", "ieee9", "--horizon", "1", "--dt", "nan"), "--dt"),
    (("bench", "ieee9", "--horizon", "1", "--dt", "nan"), "--dt"),
    (("ra", "ieee9", "--dt", "nan"), "--dt"),
    (("hmin", "ieee9", "--target-ra", "0.2", "--dt", "nan"), "--dt"),
], ids=["simulate-inf", "simulate-nan", "bench-inf", "bench-horizon-nan",
        "ra-search-nan", "ra-search-neg", "hmin-search-nan", "hmin-search-neg",
        "simulate-dt-nan", "bench-dt-nan", "ra-dt-nan", "hmin-dt-nan"])
def test_non_finite_window_is_refused(tmp_path, monkeypatch, capsys, argv, named):
    """Also a bad --search-window or --dt: each is refused before any work,
    naming its flag rather than the library argument it feeds."""
    monkeypatch.chdir(tmp_path)   # where a wrongly accepted run writes its CSV
    rc, text, err = run(capsys, *argv)
    assert rc == 1
    assert named in err and "Traceback" not in err
    assert text == "" and os.listdir(tmp_path) == []


@pytest.mark.parametrize("flags, named", [
    (("--set-h", "2=inf"), ("--set-h", "bus 2", "inf")),
    (("--set-h", "2=nan"), ("--set-h", "bus 2", "nan")),
    (("--h3", "inf"), ("--h3", "bus 3", "inf")),
], ids=["set-h-inf", "set-h-nan", "h3-inf"])
def test_non_finite_inertia_is_refused(tmp_path, monkeypatch, capsys, flags, named):
    monkeypatch.chdir(tmp_path)   # where a wrongly accepted run writes its CSV
    rc, text, err = run(capsys, "simulate", "ieee9", "--horizon", "1", *flags)
    assert rc == 1
    assert all(word in err for word in named) and "Traceback" not in err
    assert text == "" and os.listdir(tmp_path) == []


def test_simulate_unknown_case(capsys):
    rc, _, err = run(capsys, "simulate", "nosuch.json", "--engine", "rk4",
                     "--horizon", "1")
    assert rc == 1
    assert "nosuch" in err


def test_simulate_rk4_and_relative_output(tmp_path, capsys):
    out = tmp_path / "t.csv"
    rc, text, _ = run(capsys, "simulate", "ieee9", "--engine", "rk4",
                      "--horizon", "0.5", "--record-every", "50",
                      "--out", str(out), "--relative", "--reference", "1")
    assert rc == 0
    assert "final relative angles" in text
    rel = read_csv(str(tmp_path / "t_rel.csv"))
    assert np.all(rel.delta[:, 0] == 0.0)   # generator 1 column is the anchor


def test_simulate_bus_reference_prints_absolute_angles(tmp_path, capsys):
    """A network bus has no angle to subtract: the closing line says the
    angles are absolute."""
    rc, text, _ = run(capsys, "simulate", "ieee9", "--engine", "rk4",
                      "--horizon", "0.05", "--out", str(tmp_path / "t.csv"),
                      "--reference", "bus:5")
    assert rc == 0
    assert "final absolute angles" in text


@pytest.mark.parametrize("case_name", ["smib", "ieee9", "ieee39"])
def test_simulate_default_stays_within_the_bound_of_rk4(case_name, tmp_path, capsys):
    """The default series run (N = 5, 0.4x the estimated accuracy window)
    holds 0.05 rad of relative angle against RK4 at dt = 1e-4 over 3 s;
    ieee39 at the acceptance check's minimum inertias. Measured: 6.6e-3,
    2.3e-3 and 6.6e-3 rad."""
    from test_acceptance import H_MIN_USED
    from sas_transim.rk4 import compare
    set_h = ([f"--set-h={bus}={h}" for bus, h in H_MIN_USED.items()]
             if case_name == "ieee39" else [])
    common = ["--horizon", "3", "--relative", *set_h]
    assert run(capsys, "simulate", case_name, "--out", str(tmp_path / "sas.csv"),
               *common)[0] == 0
    assert run(capsys, "simulate", case_name, "--engine", "rk4", "--dt", "1e-4",
               "--record-every", "10", "--out", str(tmp_path / "rk4.csv"), *common)[0] == 0
    rel = (read_csv(str(tmp_path / f"{name}_rel.csv")) for name in ("rk4", "sas"))
    assert compare(*rel).overall_max <= 0.05


def test_simulate_default_window_from_estimator(tmp_path, capsys):
    """Omitting --window sizes windows from the estimated accuracy region."""
    out = tmp_path / "d.csv"
    rc, text, _ = run(capsys, "simulate", "ieee9", "--engine", "sas",
                      "--horizon", "0.4", "--out", str(out))
    assert rc == 0
    assert "windows used" in text


def test_compare_identical_files(tmp_path, capsys):
    out = tmp_path / "a.csv"
    run(capsys, "simulate", "smib", "--engine", "rk4", "--horizon", "0.5",
        "--record-every", "10", "--out", str(out))
    rc, text, _ = run(capsys, "compare", str(out), str(out))
    assert rc == 0
    assert "overall max 0 rad" in text


def test_compare_per_machine_rows(tmp_path, capsys):
    """The report carries one row per machine, so individual generators can
    be read off against the reference."""
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(capsys, "simulate", "ieee9", "--engine", "rk4", "--horizon", "0.4",
        "--record-every", "20", "--out", str(a))
    run(capsys, "simulate", "ieee9", "--engine", "sas", "--window", "0.05",
        "--horizon", "0.4", "--out", str(b))
    rc, text, _ = run(capsys, "compare", str(a), str(b), "--reference", "1",
                      "--csv")
    assert rc == 0
    rows = text.strip().splitlines()
    assert rows[0] == "machine,max_abs_err,rmse,t_at_max"
    assert len(rows) == 1 + 3
    machines = [int(r.split(",")[0]) for r in rows[1:]]
    assert machines == [1, 2, 3]


def test_compare_mismatched_machine_counts(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(capsys, "simulate", "smib", "--engine", "rk4", "--horizon", "0.2",
        "--record-every", "10", "--out", str(a))
    run(capsys, "simulate", "ieee9", "--engine", "rk4", "--horizon", "0.2",
        "--record-every", "10", "--out", str(b))
    rc, _, err = run(capsys, "compare", str(a), str(b))
    assert rc == 1
    assert "machine counts" in err


TRAJ_CSV = "t,delta_1,delta_2,omega_1,omega_2\n0,0.1,0.2,0,0\n0.1,0.2,0.3,1,1\n"


@pytest.mark.parametrize("argv, content, named", [
    (("compare", "{ok}", "{tmp}/missing.csv"), None, "missing.csv"),
    (("ra", "{tmp}"), None, "Is a directory"),
    (("simulate", "smib", "--engine", "rk4", "--horizon", "0.1",
      "--out", "{tmp}/no/x.csv"), None, "x.csv"),
    (("ra", "{bad}"), b'{"name": "\xff"}', "not UTF-8"),
    (("compare", "{ok}", "{bad}"), b"t,delta_1,delta_2,omega_1,omega_2\n0,0.1,abc,0,0\n",
     "line 2"),
    (("compare", "{ok}", "{bad}"), b"t,delta_1,delta_2,omega_1,omega_2\n0,0.1,0.2,0,0\n0.1,0.2\n",
     "line 3"),
    (("compare", "{ok}", "{bad}"), b"t,delta_1,delta_2,omega_1,omega_2\n0,\xff,0.2,0,0\n",
     "not UTF-8"),
    (("compare", "{bad}", "{bad}"), b"t\n0\n1\n", "no machine columns"),
], ids=["missing-csv", "case-is-dir", "out-dir-missing", "case-not-utf8",
        "csv-bad-cell", "csv-ragged-row", "csv-not-utf8", "csv-no-machines"])
def test_unreadable_input_exits_1(tmp_path, capsys, argv, content, named):
    """Missing, unreadable or malformed files are input errors that name
    what is wrong, never tracebacks."""
    ok = tmp_path / "ok.csv"
    ok.write_text(TRAJ_CSV)
    bad = tmp_path / "bad.json"
    if content is not None:
        bad.write_bytes(content)
    argv = [a.format(ok=ok, tmp=tmp_path, bad=bad) for a in argv]
    rc, _, err = run(capsys, *argv)
    assert rc == 1
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize("ref", ["0", "3"])
def test_compare_rejects_reference_out_of_range(tmp_path, capsys, ref):
    """--reference is a 1-based column: 0 and K + 1 name the valid range."""
    ok = tmp_path / "ok.csv"
    ok.write_text(TRAJ_CSV)
    rc, _, err = run(capsys, "compare", str(ok), str(ok), "--reference", ref)
    assert rc == 1
    assert f"--reference {ref}" in err and "1..2" in err


def test_numerical_failure_exit_code(capsys):
    """Divergence inside the engine surfaces as exit code 2."""
    rc, _, err = run(capsys, "simulate", "smib", "--engine", "sas",
                     "--horizon", "1", "--window", "0.3", "--adaptive",
                     "--iloa-max", "1e-9")
    assert rc == 2
    assert "numerical failure" in err


def test_ra_table_and_csv(capsys):
    rc, text, _ = run(capsys, "ra", "ieee9", "--iloa-max", "5")
    assert rc == 0
    assert "system R_A" in text
    rc, text, _ = run(capsys, "ra", "ieee9", "--iloa-max", "5", "--csv")
    header = text.splitlines()[0]
    assert header.startswith("machine,c1,c2,R_A")


def test_ra_equilibrium_has_no_root(capsys):
    rc, text, _ = run(capsys, "ra", "smib", "--equilibrium")
    assert rc == 0
    assert "none" in text
    assert "unbounded" in text


@pytest.mark.parametrize("text", ["abc", "gen:x", "bus:", "node:3"])
def test_ra_rejects_bad_reference_text(capsys, text):
    rc, _, err = run(capsys, "ra", "ieee9", "--reference", text)
    assert rc == 1
    assert "--reference" in err and "Traceback" not in err


def test_hmin_fleet(capsys):
    rc, text, _ = run(capsys, "hmin", "ieee9", "--target-ra", "0.1",
                      "--iloa-max", "5", "--fleet", "--state", "worst",
                      "--search-window", "0.8")
    assert rc == 0
    assert "fleet H_min" in text


@pytest.mark.parametrize("command", [
    ("hmin", "--target-ra", "0.1", "--fleet"),
    ("ra",),
], ids=["hmin", "ra"])
def test_hmin_fleet_without_an_estimable_machine(tmp_path, capsys, command):
    """A one-generator case leaves no machine besides the reference."""
    doc = {"base_mva": 100, "frequency_hz": 60,
           "buses": [{"id": 1, "voltage_mag": 1.0},
                     {"id": 2, "voltage_mag": 0.98, "voltage_ang": -0.05,
                      "p_load": 0.5}],
           "branches": [{"from_bus": 1, "to_bus": 2, "x": 0.1}],
           "generators": [{"bus": 1, "H": 5.0, "xdp": 0.2}]}
    path = tmp_path / "one_gen.json"
    path.write_text(json.dumps(doc))
    rc, text, err = run(capsys, command[0], str(path), *command[1:], "--equilibrium")
    assert rc == 1
    assert text == ""
    assert "no generator other than the reference" in err


def test_hmin_rejects_nan_target(capsys):
    for target in ("nan", "inf", "0"):
        rc, text, err = run(capsys, "hmin", "ieee9", "--target-ra", target, "--fleet")
        assert rc == 1
        assert "--target-ra" in err
        assert text == ""


def test_modes_published_periods(capsys):
    rc, text, _ = run(capsys, "modes", "ieee9", "--h3", "4.5", "--csv")
    assert rc == 0
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    periods = [float(r[1]) for r in rows]
    assert periods[0] == pytest.approx(0.9510, rel=0.03)
    assert periods[1] == pytest.approx(0.5516, rel=0.03)


def test_set_h_override(capsys):
    rc, text, _ = run(capsys, "modes", "ieee9", "--set-h", "3=4.5", "--csv")
    assert rc == 0
    rc2, text2, _ = run(capsys, "modes", "ieee9", "--h3", "4.5", "--csv")
    assert text == text2
    rc, _, err = run(capsys, "modes", "ieee9", "--set-h", "banana")
    assert rc == 1 and "BUS=H" in err


def test_bench_report(capsys):
    rc, text, _ = run(capsys, "bench", "smib", "--horizon", "1.0",
                      "--window", "0.1", "--json")
    assert rc == 0
    report = json.loads(text)
    assert report["windows"] == 10
    # arithmetic identity of the report fields
    assert report["speed_ratio_vs_rk4"] == pytest.approx(
        report["rk4_s"] / (report["windows"] * report["online_eval_s"]), rel=1e-6)
    assert report["t_over_tau"] == pytest.approx(0.1 / report["online_eval_s"],
                                                 rel=1e-6)


def test_bench_default_window_stops_at_the_horizon(capsys):
    """The estimated window (about 0.2 s here) is clamped to a shorter
    horizon, so one window of the horizon's length is what was timed."""
    rc, text, _ = run(capsys, "bench", "ieee9", "--horizon", "0.05", "--json")
    assert rc == 0
    report = json.loads(text)
    assert report["windows"] == 1
    assert report["t_over_tau"] == pytest.approx(0.05 / report["online_eval_s"],
                                                 rel=1e-12)


def test_bench_ratio_uses_the_mean_simulated_window(capsys):
    """A 0.4 s horizon in 0.3 s windows is 2 windows of 0.2 s on average:
    the ratio divides that mean, not the configured 0.3 s."""
    rc, text, _ = run(capsys, "bench", "ieee9", "--window", "0.3",
                      "--horizon", "0.4", "--json")
    assert rc == 0
    report = json.loads(text)
    assert report["windows"] == 2
    assert report["t_over_tau"] == pytest.approx(
        0.4 / report["windows"] / report["online_eval_s"], rel=1e-12)


def test_bench_refuses_a_horizon_that_covers_no_window(capsys):
    """A horizon within the driver's 1e-12 s end tolerance simulates no
    window, so there is no time per window to report."""
    rc, text, err = run(capsys, "bench", "smib", "--horizon", "1e-13",
                        "--window", "0.1")
    assert rc == 1
    assert "--horizon" in err and "Traceback" not in err
    assert text == ""


def test_bench_single_window(capsys):
    rc, text, _ = run(capsys, "bench", "smib", "--horizon", "0.1",
                      "--window", "0.1", "--json")
    assert rc == 0
    assert json.loads(text)["windows"] == 1


def test_case_dir_override(tmp_path, capsys, monkeypatch):
    """SAS_TRANSIM_CASE_DIR points the built-in names at another directory."""
    from importlib import resources
    src = resources.files("sas_transim").joinpath("cases/smib.json")
    doc = json.loads(src.read_text())
    doc["generators"][0]["H"] = 9.0
    (tmp_path / "smib.json").write_text(json.dumps(doc))
    monkeypatch.setenv(CASE_DIR_ENV, str(tmp_path))
    from sas_transim import builtin_case
    assert builtin_case("smib").generator_at(2).H == 9.0
    monkeypatch.delenv(CASE_DIR_ENV)
    assert builtin_case("smib").generator_at(2).H == 3.0


def test_csv_outputs_byte_identical(tmp_path, capsys):
    """Nothing in the pipeline is stochastic: two runs give identical bytes."""
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        run(capsys, "simulate", "ieee39", "--engine", "sas", "--horizon", "0.6",
            "--window", "0.2", "--out", str(out))
    assert a.read_bytes() == b.read_bytes()
