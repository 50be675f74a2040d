"""Command-line interface: flags, formats, determinism, and exit codes."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import plaquette
from plaquette import cli, dynamics, exact, lattice, paths
from plaquette.dynamics import RateModel, trajectory_from_text, replay_trajectory

GAP_L2_BETA1 = 0.2847662422089848


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_python(*args, env=None):
    """A fresh interpreter on `args` in `env` (default this one's),
    importing the package these tests import (also from a checkout that is
    not installed)."""
    env = dict(os.environ if env is None else env)
    src = str(Path(plaquette.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, env=env)


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
    with pytest.raises(SystemExit, match="^exact: LOBPCG gap did not converge") as err:
        cli.main(["exact", "--beta", "1.0", "--size", "4"])
    assert "\n" not in str(err.value)
    assert "after 2 iterations" in str(err.value)


@pytest.mark.parametrize("argv, what", [
    (["--beta", "30", "--size", "2"], "mixing bracket not found"),
    (["--beta", "300", "--size", "2", "--bc", "per"], "dense gap .* is not positive"),
    (["--beta", "150", "--size", "4"], "LOBPCG gap .* is not positive"),
    (["--beta", "200", "--size", "4"], "LOBPCG gap broke down"),
])
def test_exact_exits_with_one_line_at_large_beta(argv, what):
    # these ended in RuntimeError, ZeroDivisionError and LinAlgError tracebacks;
    # L=2 reaches the mixing bracket's ceiling at beta 30, where the dense gap
    # rounds to 6.7e-16 (at beta 20 it rounds to -1.3e-49 and raises first)
    proc = run_python("-W", "error", "-m", "plaquette", "exact", *argv)
    assert proc.returncode == 1 and proc.stdout == ""
    assert re.fullmatch(f"exact: {what}.*\n", proc.stderr), proc.stderr


def test_exact_exits_with_one_line_where_the_tv_certificate_overflows():
    # an uncertified tmix of 7.74e23 was printed after two RuntimeWarnings
    proc = run_python("-W", "error", "-m", "plaquette", "exact", "--size", "2", "--bc", "per",
                      "--beta", "14")
    assert proc.returncode == 1 and proc.stdout == ""
    assert re.fullmatch(r"exact: the TV certificate at t \S+ is nan, at beta 14\.0 with gap"
                        r" \S+\n", proc.stderr), proc.stderr


def test_exact_l4_plus_beta_half_exits_zero(capsys):
    # scipy's LOBPCG stalled here, and the command exited 1
    code, out, _ = run(["exact", "--beta", "0.5", "--size", "4"], capsys)
    assert code == 0
    assert float(rows_of(out)[1].split(",")[3]) == pytest.approx(0.6765894507219039, abs=1e-11)


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
    assert "biased upward at small sample counts, not a bound in either direction" in out
    assert "# ci_halfwidth=" in out


def test_flow_monte_carlo_rejects_no_samples(tmp_path):
    # --samples 0 or -4 used to escape from paths.flow_cost as a ValueError
    # traceback
    conf = tmp_path / "s.conf"
    conf.write_text("samples = -4\n")
    for args, bad in ((["--samples", "0"], "0"), (["--config", str(conf)], "-4")):
        proc = run_python("-m", "plaquette.cli", "flow", "--size", "2",
                          "--mode", "monte_carlo", *args)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.splitlines()[-1] == ("plaquette flow: error: argument --samples:"
                                                f" expected a positive integer, got '{bad}'")


def test_flow_monte_carlo_interval_is_nan_at_one_sample():
    # one sample leaves the variance undefined; it was reported as 0.0
    proc = run_python("-W", "error", "-m", "plaquette", "flow", "--size", "3",
                      "--mode", "monte_carlo", "--samples", "1")
    assert proc.returncode == 0 and proc.stderr == ""
    assert "# ci_halfwidth=nan\n" in proc.stdout


def test_flow_rejects_non_plus_boundaries(tmp_path):
    # both used to escape as ValueError tracebacks from paths.flow_cost
    frame = tmp_path / "frame.txt"
    frame.write_text("++++\n+--+\n+--+\n++++\n")
    for bc in ("per", f"fixed:{frame}"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["flow", "--size", "2", "--bc", bc])
        assert str(exc.value) == "flow: flow bounds are computed for the all-plus boundary (--bc plus)"


@pytest.mark.parametrize("argv, what", [
    (["--size", "2", "--level", "7"], "empty level set"),
    (["--size", "4", "--mode", "monte_carlo", "--samples", "3", "--level", "18", "--seed", "1"],
     "no sampled path visited the level set"),
    (["--size", "32", "--mode", "monte_carlo", "--samples", "3", "--beta", "0.5"],
     "the congestion or ci_halfwidth of an edge overflows a float at beta=0.5"),
    (["--size", "3", "--beta", "150"],
     r"the flow weight .* underflows to 0 at beta=150\.0"),
])
def test_flow_exits_with_one_line_on_a_flow_error(argv, what):
    # these escaped from paths.flow_cost as ValueError tracebacks
    proc = run_python("-W", "error", "-m", "plaquette", "flow", *argv)
    assert proc.returncode == 1 and proc.stdout == ""
    assert re.fullmatch(f"flow: {what}\n", proc.stderr), proc.stderr


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


def test_simulate_records_events_only_for_out(tmp_path, monkeypatch, capsys):
    # without --out no trajectory is written, so none is recorded
    seen = []
    real = dynamics.simulate

    def spy(*args, **kwargs):
        seen.append(kwargs["record"])
        return real(*args, **kwargs)

    monkeypatch.setattr(dynamics, "simulate", spy)
    args = ["simulate", "--beta", "1.5", "--size", "3", "--stop", "events=100", "--seed", "8"]
    _, bare, _ = run(args, capsys)
    _, written, _ = run(args + ["--out", str(tmp_path / "traj.txt")], capsys)
    assert seen == [False, True] and bare == written
    assert trajectory_from_text((tmp_path / "traj.txt").read_text()).n_events == 100


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


@pytest.mark.parametrize("betas", ["2.0", "2,2"])
def test_arrhenius_slope_is_nan_below_two_distinct_betas(betas):
    # the weighted fit divided by a zero sxx: two RuntimeWarnings and
    # slope_stderr=inf, a traceback under -W error
    proc = run_python("-W", "error", "-m", "plaquette", "arrhenius", "--beta", betas,
                      "--replicas", "5", "--workers", "1")
    assert proc.returncode == 0 and proc.stderr == ""
    assert "# slope=nan\n# slope_stderr=nan\n" in proc.stdout


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

    def lying_ground_states(spec):
        out = real(spec)
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


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_command_entry_pins_blas_threads_unless_set():
    # the command (`plaquette`, `python -m plaquette`) sets one thread each
    # before numpy loads; a value already set is kept, and importing the
    # library sets nothing
    bare = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    report = "; import os; print(*(os.environ.get(v, '-') for v in %r))" % (BLAS_VARS,)
    for env, code, want in (
        (bare, "import plaquette.__main__", "1 1 1"),
        (dict(bare, OMP_NUM_THREADS="3"), "import plaquette.__main__", "1 3 1"),
        (bare, "import plaquette.cli, plaquette.exact", "- - -"),
    ):
        proc = run_python("-c", code + report, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == want.split(), (code, proc.stdout)
    proc = run_python("-m", "plaquette", "exact", "--beta", "1.0", "--size", "2", env=bare)
    assert proc.returncode == 0, proc.stderr
    assert rows_of(proc.stdout)[1].startswith("1.0,2,plus,")


def test_cli_import_leaves_scipy_stats_out():
    # scipy costs more to import than the rest of the package, and only the
    # exact layer needs it: importing any module, building a symmetry table
    # and running the Monte Carlo commands must leave every scipy module
    # unloaded
    report = ("; import sys; print(sorted(m for m in sys.modules"
              " if m == 'scipy' or m.startswith('scipy.')))")
    for code in (
        "import plaquette.cli",
        "import plaquette.exact, plaquette.dynamics, plaquette.ground, plaquette.paths",
        # the symmetry table is numpy alone
        "from plaquette import exact, lattice; exact.Symmetry.of(lattice.LatticeSpec(3))",
        "from plaquette import cli; cli.main(['simulate', '--beta', '1.0', '--size', '3',"
        " '--stop', 'events=50', '--seed', '2'])",
        "from plaquette import cli; cli.main(['arrhenius', '--workers', '1', '--beta',"
        " '2.0,2.25', '--replicas', '3', '--seed', '1'])",
    ):
        proc = run_python("-c", code + report)
        assert proc.returncode == 0, (code, proc.stderr)
        assert proc.stdout.strip().splitlines()[-1] == "[]", code
    proc = run_python("-c", "import sys, plaquette.cli; print('scipy.stats' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    # the sparse gap is numpy on scipy.sparse matrices: no scipy.sparse.linalg
    proc = run_python("-c", "import sys; from plaquette import exact, lattice, dynamics;"
                      " G = exact.build_generator(lattice.LatticeSpec(4), dynamics.RateModel(1.0));"
                      " assert G.n_states > exact.DENSE_THRESHOLD; exact.spectral_gap(G);"
                      " print(sorted(m for m in sys.modules if m.startswith('scipy.sparse.linalg')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_exact_refuses_eps_at_or_below_the_tail():
    # eps = 1e-8 ended in a RuntimeError traceback after 200 doublings
    for eps in ("1e-8", "5e-9"):
        proc = run_python("-m", "plaquette.cli", "exact", "--size", "2", "--eps", eps)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.splitlines()[-1] == ("plaquette exact: error: argument --eps:"
                                                f" expected a number in (1e-08, 1), got '{eps}'")


def test_simulate_rejects_bad_stop_times():
    # time=nan used to run toward the 10^7-event budget
    for t in ("nan", "inf", "-1"):
        with pytest.raises(SystemExit, match="finite and nonnegative"):
            cli.main(["simulate", "--stop", f"time={t}"])


def test_simulate_rejects_a_negative_event_count():
    # events=-5 used to run no event, print tau 0.0 and exit 0
    proc = run_python("-m", "plaquette", "simulate", "--size", "2", "--stop", "events=-5")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == ("bad --stop value 'events=-5': stop event count must be"
                           " a nonnegative integer, got -5\n")


def test_spent_budget_and_empty_pool_exit_with_one_line(tmp_path):
    # both used to escape as tracebacks; a split threshold of 1 empties
    # the rectangle pools, so it is refused as an option value
    conf = tmp_path / "c1.conf"
    conf.write_text("split_threshold = 1\n")
    for args in (["--split-threshold", "1"], ["--config", str(conf)]):
        proc = run_python("-m", "plaquette.cli", "flow", "--size", "3", *args)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.splitlines()[-1] == ("plaquette flow: error: argument"
                                                " --split-threshold: expected an integer"
                                                " of at least 2, got '1'")
    # a legal threshold can still leave a pool empty on the smallest boxes
    proc = run_python("-m", "plaquette.cli", "flow", "--size", "2", "--beta", "1",
                      "--split-threshold", "2")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.strip() == "flow: no good rectangles in part 1"
    proc = run_python("-m", "plaquette.cli", "simulate", "--size", "4", "--init", "minus",
                      "--stop", "hit-ground", "--budget-events", "5")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "simulate: event budget 5 exhausted before the stop condition\n"


QUICK_CHECKS = (
    "parity_bijection_L3", "no_two_defect_states_L3", "defect_histogram_L2",
    "counting_bound_L3", "torus_ground_count_side3", "torus_count_prefix_side3",
    "flip_toggles_corners", "rate_ratio_heatbath_metropolis", "detailed_balance_L2",
    "generator_rowsums_zero_L3", "gap_L1_formula", "gap_beta0_L2",
    "eigenfunction_rayleigh_L3", "tmix_ge_trel_ln2_L2", "profile_bound_ge_tmix_L2",
    "singleton_lambda_formula_L2", "rectangle_energy_discipline",
    "extended_rectangle_count_bounds", "split_part_bounds",
    "classify_total_random_vectors", "flow_bound_L2_beta1",
    "ground_code_roundtrip_side3", "minimal_path_recovery_side3",
    "trajectory_roundtrip", "hitting_seed_determinism", "ground_mass_decay_rate_L3",
    "excursion_nonreturn_side3",
)
FULL_CHECKS = ("counting_bound_L4", "ground_code_roundtrip_side4", "path_suite_10k_L6")


def test_verify_rosters_are_the_checks_in_definition_order():
    # each roster is read off its suite's definitions: a local that is not
    # a check, or a check out of place, shows here
    assert tuple(fn.__name__ for fn in cli._checks_quick()) == QUICK_CHECKS
    assert tuple(fn.__name__ for fn in cli._checks_full()) == FULL_CHECKS


def test_verify_full_runs_the_quick_then_the_full_roster(capsys):
    code, out, err = run(["verify", "--level", "full"], capsys)
    assert code == 0 and err == ""
    assert out.splitlines() == ["# schema=1", "check,status",
                                *(f"{name},pass" for name in QUICK_CHECKS + FULL_CHECKS)]


def test_single_beta_commands_refuse_a_beta_list():
    for command in ("flow", "simulate"):
        with pytest.raises(SystemExit, match=f"^{command} takes a single --beta$"):
            cli.main([command, "--beta", "1.0,2.0"])


def test_simulate_starts_from_the_half_area_rectangle(tmp_path, capsys):
    out_file = tmp_path / "traj.txt"
    code, _, _ = run(["simulate", "--size", "4", "--init", "rect", "--stop", "events=0",
                      "--out", str(out_file)], capsys)
    assert code == 0
    traj = trajectory_from_text(out_file.read_text())
    assert traj.initial == cli._rect_init(lattice.LatticeSpec(4))
    assert int((traj.initial.spins == -1).sum()) == 9  # a 3x3 block of 16 sites
    with pytest.raises(SystemExit, match="^bad --init value 'square'$"):
        cli.main(["simulate", "--init", "square"])


def test_rect_start_is_centred_in_storage_on_both_boundaries():
    # periodic sites are 0-based, and the rectangle built from 1-based
    # sites left the periodic box at L = 1 and 2 (ValueError: site (1, 2)
    # outside the box); plus starts are those 1-based sites, as before
    for L in range(1, 9):
        plus = cli._rect_init(lattice.LatticeSpec(L))
        per = cli._rect_init(lattice.LatticeSpec(L, lattice.PERIODIC))
        assert per.spins.tobytes() == plus.spins.tobytes()
        minus = [(i + 1, j + 1) for i, j in zip(*(plus.spins == -1).nonzero())]
        (a, b), (c, d) = min(minus), max(minus)
        w, h = c - a + 1, d - b + 1
        assert len(minus) == w * h and (a, b) == ((L - w) // 2 + 1, (L - h) // 2 + 1)
    for L in ("1", "2"):
        proc = run_python("-W", "error", "-m", "plaquette", "simulate", "--bc", "per",
                          "--init", "rect", "--size", L)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr


def test_unreadable_config_and_init_files_are_named(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("# sizes\nsize 2\n")
    with pytest.raises(SystemExit, match=f"^{re.escape(str(conf))}:2: expected 'key = value'$"):
        cli.main(["exact", "--config", str(conf)])
    init = tmp_path / "init.txt"
    init.write_text("+++\n+x+\n+++\n")
    with pytest.raises(SystemExit, match=f"^{re.escape(str(init))}: bad spin character 'x'$"):
        cli.main(["simulate", "--size", "3", "--init", f"file:{init}"])


@pytest.mark.parametrize("argv, line", [
    (["exact", "--size", "120", "--beta", "1"],
     "exact: enumeration needs 2^14400 states, budget is 2^20"),
    (["flow", "--size", "120"], "flow: enumeration needs 2^14400 states, budget is 2^20"),
    (["exact", "--size", "60"], "exact: enumeration needs 2^3600 states, budget is 2^20"),
    # L = 3269017: the frame alone would take 9.72 TiB, and the box is
    # refused as it is made, before its enumeration is counted
    (["exact", "--size", "critical", "--beta", "30"],
     "exact: a box of side 3269017 has 3269017^2 sites, budget is 2^20"),
    (["flow", "--size", "critical", "--beta", "30"],
     "flow: a box of side 3269017 has 3269017^2 sites, budget is 2^20"),
    (["exact", "--size", "critical", "--beta", "1500"],
     "--size critical: critical length exp(beta/2) overflows at beta 1500.0"),
    (["simulate", "--size", "critical", "--beta", "30"],
     "simulate: a box of side 3269017 has 3269017^2 sites, budget is 2^20"),
    (["arrhenius", "--size", "critical", "--beta", "30"],
     "arrhenius: a box of side 3269017 has 3269017^2 sites, budget is 2^20"),
    (["flow", "--mode", "monte_carlo", "--size", "critical", "--beta", "30"],
     "flow: a box of side 3269017 has 3269017^2 sites, budget is 2^20"),
    # the boundary is refused before the 2^25 states are
    (["flow", "--size", "5", "--bc", "per"],
     "flow: flow bounds are computed for the all-plus boundary (--bc plus)"),
])
def test_boxes_that_cannot_be_built_exit_with_one_line(argv, line):
    # these ended in ValueError (4300-digit int conversion), OverflowError
    # and numpy _ArrayMemoryError tracebacks, or printed a 1084-digit count
    proc = run_python("-m", "plaquette", *argv)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == line + "\n"


def test_critical_size_at_beta_zero_is_one(capsys):
    code, out, _ = run(["exact", "--size", "critical", "--beta", "0"], capsys)
    assert code == 0
    assert rows_of(out)[1].startswith("0.0,1,plus,")
