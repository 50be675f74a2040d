"""Command-line interface: flags, formats, determinism, and exit codes."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import plaquette
from plaquette import cli, exact, lattice, paths
from plaquette.dynamics import RateModel, trajectory_from_text, replay_trajectory

GAP_L2_BETA1 = 0.2847662422089848


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_python(*args):
    """A fresh interpreter on `args`, importing the package these tests
    import (also from a checkout that is not installed)."""
    src = str(Path(plaquette.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=path))


def rows_of(text):
    return [ln for ln in text.strip().splitlines() if not ln.startswith("#")]


def test_exact_csv_row(capsys):
    code, out, _ = run(["exact", "--beta", "1.0", "--size", "2", "--bc", "plus"], capsys)
    assert code == 0
    assert out.startswith("# schema=1\n")
    header, row = rows_of(out)
    assert header == "beta,L,bc,gap,trel,tmix,profile_bound,pi_ground"
    vals = row.split(",")
    assert vals[0] == "1.0" and vals[1] == "2" and vals[2] == "plus"
    assert float(vals[3]) == pytest.approx(GAP_L2_BETA1, abs=1e-12)
    assert float(vals[4]) == pytest.approx(1.0 / GAP_L2_BETA1, abs=1e-9)
    assert float(vals[6]) >= float(vals[5]) > 0
    assert 0 < float(vals[7]) < 1


@pytest.mark.parametrize("kind", ["metropolis", "heat_bath"])
def test_exact_and_flow_honour_kind(kind, capsys):
    # both commands ran Metropolis rates whatever --kind said
    spec = lattice.LatticeSpec(2)
    G = exact.build_generator(spec, RateModel(1.0, kind))
    _, out, _ = run(["exact", "--beta", "1.0", "--size", "2", "--kind", kind], capsys)
    assert float(rows_of(out)[1].split(",")[3]) == pytest.approx(exact.spectral_gap(G), abs=1e-12)
    _, out, _ = run(["flow", "--beta", "1.0", "--size", "2", "--kind", kind], capsys)
    cost = paths.flow_cost(spec, 1.0, 1, kind=kind).cost
    vals = rows_of(out)[1].split(",")
    assert float(vals[4]) == pytest.approx(cost, rel=1e-12)
    assert float(vals[6]) == pytest.approx(exact.spectral_profile(G, 1), rel=1e-12)


def test_exact_above_the_dense_threshold(capsys):
    # the profile bound used to escape as a BudgetExceededError traceback
    code, out, _ = run(["exact", "--beta", "1.0", "--size", "4"], capsys)
    assert code == 0
    vals = rows_of(out)[1].split(",")
    assert vals[1] == "4" and float(vals[3]) > 0
    assert vals[5] == vals[6] == "nan"
    with pytest.raises(SystemExit, match="^exact: enumeration needs"):
        cli.main(["exact", "--size", "5"])


def test_exact_is_deterministic_above_the_dense_threshold():
    # the L=4 gap comes from the sparse solver; two fresh runs must agree
    runs = [run_python("-m", "plaquette.cli", "exact", "--beta", "1.0", "--size", "4")
            for _ in range(2)]
    assert all(proc.returncode == 0 for proc in runs)
    assert runs[0].stdout == runs[1].stdout
    assert rows_of(runs[0].stdout)[1].startswith("1.0,4,plus,")


def test_exact_exits_with_one_line_when_the_gap_does_not_converge(monkeypatch):
    monkeypatch.setattr(exact, "_GAP_MAXITER", 2)
    with pytest.raises(SystemExit, match="^exact: LOBPCG gap did not converge"):
        cli.main(["exact", "--beta", "1.0", "--size", "4"])


def test_exact_beta_grid_and_determinism(capsys):
    args = ["exact", "--beta", "0.0,1.0", "--size", "2", "--bc", "plus"]
    _, out1, _ = run(args, capsys)
    _, out2, _ = run(args, capsys)
    assert out1 == out2
    rows = rows_of(out1)
    assert len(rows) == 3
    gap_beta0 = float(rows[1].split(",")[3])
    assert gap_beta0 == pytest.approx(2.0, abs=1e-10)


def test_exact_contract_points(capsys):
    _, out, _ = run(["exact", "--beta", "2.0", "--size", "3", "--bc", "per"], capsys)
    pi_ground = float(rows_of(out)[1].split(",")[7])
    assert pi_ground > 0.9


def test_exact_fixed_frame_file(tmp_path, capsys):
    frame = tmp_path / "frame.txt"
    frame.write_text("++++\n+..+\n+..+\n++++\n".replace(".", "+"))
    code, out, _ = run(["exact", "--beta", "1.0", "--size", "2", "--bc", f"fixed:{frame}"], capsys)
    assert code == 0
    # the all-plus frame is the plus boundary under another name
    assert float(rows_of(out)[1].split(",")[3]) == pytest.approx(GAP_L2_BETA1, abs=1e-12)


def test_exact_dump_matrix(tmp_path, capsys):
    out_file = tmp_path / "gen.txt"
    run(
        ["exact", "--beta", "1.0", "--size", "2", "--dump-matrix", str(out_file)],
        capsys,
    )
    lines = out_file.read_text().strip().splitlines()
    i, j, rate = lines[0].split()
    float(rate)


def test_flow_report(tmp_path, capsys):
    out_file = tmp_path / "edges.csv"
    code, out, _ = run(
        ["flow", "--beta", "1.0", "--size", "2", "--level", "1", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    header, row = rows_of(out)
    assert header == "beta,L,level,mode,cost,inv_cost,lambda_S,holds"
    vals = row.split(",")
    assert vals[3] == "exhaustive"
    assert float(vals[4]) * float(vals[5]) == pytest.approx(1.0, rel=1e-12)
    assert vals[7] == "true"
    body = out_file.read_text().strip().splitlines()
    assert body[0] == "# schema=1"
    assert body[1] == "edge_state_hash,site_x,site_y,congestion"


def test_flow_monte_carlo_caveat(capsys):
    code, out, _ = run(
        ["flow", "--beta", "1.0", "--size", "2", "--level", "1",
         "--mode", "monte_carlo", "--samples", "500", "--seed", "2"],
        capsys,
    )
    assert code == 0
    assert "lower estimate" in out
    assert "# ci_halfwidth=" in out


def test_flow_monte_carlo_rejects_no_samples():
    with pytest.raises(ValueError, match="samples must be at least 1"):
        cli.main(["flow", "--size", "2", "--mode", "monte_carlo", "--samples", "0"])


def test_flow_rejects_non_plus_boundaries(tmp_path):
    # both used to escape as ValueError tracebacks from paths.flow_cost
    frame = tmp_path / "frame.txt"
    frame.write_text("++++\n+--+\n+--+\n++++\n")
    for bc in ("per", f"fixed:{frame}"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["flow", "--size", "2", "--bc", bc])
        assert str(exc.value) == "flow: flow bounds are computed for the all-plus boundary (--bc plus)"


def test_simulate_event_count_and_replay(tmp_path, capsys):
    out_file = tmp_path / "traj.txt"
    code, out, _ = run(
        ["simulate", "--beta", "1.0", "--size", "3", "--bc", "plus",
         "--init", "minus", "--stop", "events=250", "--seed", "4",
         "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    traj = trajectory_from_text(out_file.read_text())
    assert traj.n_events == 250
    assert replay_trajectory(traj) == traj.final
    row = rows_of(out)[1]
    assert float(row.split(",")[4]) == traj.elapsed


def test_simulate_ground_start_is_empty(tmp_path, capsys):
    out_file = tmp_path / "traj.txt"
    _, out, _ = run(
        ["simulate", "--beta", "2.0", "--size", "3", "--bc", "per",
         "--init", "plus", "--stop", "hit-ground", "--seed", "1",
         "--out", str(out_file)],
        capsys,
    )
    traj = trajectory_from_text(out_file.read_text())
    assert traj.n_events == 0 and traj.elapsed == 0.0


def test_simulate_determinism(capsys):
    args = ["simulate", "--beta", "1.5", "--size", "3", "--stop", "events=100", "--seed", "8"]
    _, a, _ = run(args, capsys)
    _, b, _ = run(args, capsys)
    assert a == b


def test_arrhenius_workers_agree(capsys):
    args = [
        "arrhenius", "--beta", "2.0,2.25", "--bc", "plus",
        "--replicas", "20", "--seed", "5",
    ]
    _, seq, _ = run(args + ["--workers", "1"], capsys)
    _, par, _ = run(args + ["--workers", "2"], capsys)
    assert seq == par
    assert "# slope=" in seq and "# slope_stderr=" in seq
    header = rows_of(seq)[0]
    assert header == "beta,L,bc,mean_tau,ci_lo,ci_hi,replicas,flagged"


def test_arrhenius_critical_size_column(capsys):
    _, out, _ = run(
        ["arrhenius", "--beta", "2.0,2.5", "--bc", "plus", "--replicas", "10",
         "--seed", "0", "--workers", "1"],
        capsys,
    )
    rows = rows_of(out)[1:]
    assert [r.split(",")[1] for r in rows] == ["2", "3"]  # floor(exp(beta/2))


def test_arrhenius_rejects_fixed_frames(capsys):
    with pytest.raises(SystemExit):
        cli.main(["arrhenius", "--bc", "fixed:/tmp/x", "--replicas", "5"])
    capsys.readouterr()


def test_config_file_merge_and_override(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("beta = 3.0\nsize = 2\nbc = plus\n# comment line\n")
    _, out, _ = run(["exact", "--config", str(conf), "--beta", "1.0"], capsys)
    row = rows_of(out)[1]
    assert row.startswith("1.0,2,plus,")  # flag wins, file fills the rest


def test_config_rejects_unknown_key(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("mystery = 7\n")
    with pytest.raises(SystemExit):
        cli.main(["exact", "--config", str(conf)])
    # a key of another command is accepted and ignored
    conf.write_text("replicas = 5\nsize = 2\n")
    code, out, _ = run(["exact", "--config", str(conf)], capsys)
    assert code == 0 and rows_of(out)[1].startswith("1.0,2,plus,")


def test_bad_flag_values(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("eps = abc\n")
    kind_conf = tmp_path / "kind.conf"
    kind_conf.write_text("kind = bogus\n")
    for argv in (["exact", "--beta", "fast"], ["exact", "--bc", "moebius"],
                 ["simulate", "--stop", "whenever"], ["flow", "--mode", "psychic"],
                 # these escaped as ValueError or OverflowError tracebacks
                 ["exact", "--eps", "abc"], ["simulate", "--seed", "x"],
                 ["flow", "--level", "x"], ["arrhenius", "--replicas", "-3"],
                 ["exact", "--size", "0"], ["exact", "--config", str(conf)],
                 # --kind was ignored by exact, so these exited 0
                 ["exact", "--kind", "bogus"], ["exact", "--config", str(kind_conf)],
                 # exact never read --seed
                 ["exact", "--seed", "1"]):
        with pytest.raises(SystemExit):
            cli.main(argv)
    missing = str(tmp_path / "missing.txt")
    for argv in (["exact", "--size", "2", "--bc", f"fixed:{missing}"],
                 ["simulate", "--size", "2", "--init", f"file:{missing}"]):
        with pytest.raises(SystemExit, match=f"^cannot read {re.escape(missing)}: "):
            cli.main(argv)
    unwritable = str(tmp_path / "no" / "such" / "dir.csv")
    with pytest.raises(SystemExit, match=f"^cannot write {re.escape(unwritable)}: "):
        cli.main(["exact", "--size", "1", "--out", unwritable])
    capsys.readouterr()


def test_help_shows_defaults():
    for command in ("verify", "exact", "flow", "arrhenius", "simulate"):
        proc = run_python("-m", "plaquette.cli", command, "--help")
        assert proc.returncode == 0, proc.stderr
        assert "(default: " in proc.stdout


def test_verify_quick_passes(capsys):
    code, out, err = run(["verify", "--level", "quick"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "check,status"
    checks = [ln for ln in lines[2:] if "," in ln]
    assert len(checks) >= 20
    assert all(ln.endswith(",pass") for ln in checks)


def test_verify_names_broken_invariant(monkeypatch, capsys):
    # sabotage one primitive; the named check must catch it and fail the run
    real = lattice.ground_states

    def lying_ground_states(spec, budget=1 << 20):
        out = real(spec, budget)
        return out[:-1] if spec.is_periodic else out

    monkeypatch.setattr(lattice, "ground_states", lying_ground_states)
    code, out, err = run(["verify", "--level", "quick"], capsys)
    assert code == 1
    assert "torus_ground_count_side3,FAIL" in out
    assert "FAILED: torus_ground_count_side3" in err


def test_console_entry_point():
    proc = run_python("-m", "plaquette.cli", "exact", "--beta", "0.0", "--size", "2")
    assert proc.returncode == 0
    assert "# schema=1" in proc.stdout


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats costs more to import than the rest of the package
    proc = run_python("-c", "import sys, plaquette.cli; print('scipy.stats' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_simulate_rejects_bad_stop_times():
    # time=nan used to run toward the 10^7-event budget
    for t in ("nan", "inf", "-1"):
        with pytest.raises(SystemExit, match="finite and nonnegative"):
            cli.main(["simulate", "--stop", f"time={t}"])


def test_spent_budget_and_empty_pool_exit_with_one_line():
    # both used to escape as tracebacks
    with pytest.raises(SystemExit) as exc:
        cli.main(["flow", "--size", "3", "--split-threshold", "1"])
    assert str(exc.value) == "flow: no good rectangles in part 1"
    proc = run_python("-m", "plaquette.cli", "simulate", "--size", "4", "--init", "minus",
                      "--stop", "hit-ground", "--budget-events", "5")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "simulate: event budget 5 exhausted before the stop condition\n"
