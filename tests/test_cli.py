import importlib.util
import inspect
import math
import re
import signal
import threading
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import newteig
import newteig.cli
import newteig.eigen_newton
import newteig.multilevel
import newteig.reference
from newteig.cli import (EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_SOLVER, ConfigError,
                         RunConfig, cmd_bench, cmd_solve, local_exponent, main,
                         parse_config, run_bench)
from newteig.linalg import SolverError, solve_bordered
from newteig.mesh import MeshError, MeshFormatError, load_mesh, save_mesh, unit_square_mesh

from meshgen import renumbered_square

EXACT_FIRST = 2 * math.pi ** 2


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def failing_coarse_solve(*args, **kwargs):
    raise SolverError("synthetic coarse-solve failure")


def read_csv(path):
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_parse_config_empty_gives_defaults(tmp_path):
    config = parse_config(write_config(tmp_path, ""))
    assert config.problem == "laplace"
    assert config.mesh_h == pytest.approx(1 / 6)
    assert config.levels == 3
    assert config.eigen_count == 1


def test_parse_config_example2(tmp_path):
    config = parse_config(write_config(tmp_path, "problem = example2\n"))
    coeffs = config.coefficients()
    assert coeffs.preset == "example2"
    x = np.array([0.25])
    y = np.array([0.75])
    assert coeffs.weight(x, y)[0] == pytest.approx(1 + (0.25 - 0.5) * (0.75 - 0.5))
    assert coeffs.reaction(x, y)[0] == pytest.approx(math.exp((0.25 - 0.5) * (0.75 - 0.5)))
    diff = coeffs.diffusion(x, y)[0]
    assert diff[0, 0] == pytest.approx(1 + (0.25 - 0.5) ** 2)
    assert diff[0, 1] == pytest.approx((0.25 - 0.5) * (0.75 - 0.5))


def test_parse_config_rejects_zero_levels(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, "levels = 0\n"))


def test_validate_rejects_solver_tol_below_machine_epsilon():
    eps = float(np.finfo(float).eps)
    with pytest.raises(ConfigError, match="solver_tol"):
        RunConfig(solver_tol=0.5 * eps).validate()
    RunConfig(solver_tol=eps).validate()


def test_parse_config_fraction_and_comments(tmp_path):
    config = parse_config(write_config(
        tmp_path, "# a comment\nmesh_h = 1/12   # inline comment\nlevels = 2\n"))
    assert config.mesh_h == pytest.approx(1 / 12)
    assert config.levels == 2


def test_parse_config_unknown_key_strict_vs_lenient(tmp_path, capsys):
    path = write_config(tmp_path, "colour = blue\n")
    with pytest.raises(ConfigError, match="line 1.*colour"):
        parse_config(path, strict=True)
    config = parse_config(path, strict=False)
    assert config.levels == 3
    assert "colour" in capsys.readouterr().err


def test_parse_config_reports_bad_value_line(tmp_path):
    path = write_config(tmp_path, "levels = 3\neigen_count = many\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(path)


def test_parse_config_custom_expressions(tmp_path):
    path = write_config(tmp_path, "problem = custom\nrho = 1 + x1*x2\nphi = 0.5\n")
    coeffs = parse_config(path).coefficients()
    x, y = np.array([0.5]), np.array([0.5])
    assert coeffs.weight(x, y)[0] == pytest.approx(1.25)
    assert coeffs.reaction(x, y)[0] == pytest.approx(0.5)


def test_parse_config_rejects_coefficients_without_custom(tmp_path):
    with pytest.raises(ConfigError, match="custom"):
        parse_config(write_config(tmp_path, "rho = 2\n"))


CONFIG_KEYS = [f.name for f in fields(RunConfig) if f.name != "expressions"]
CONFIG_VALUES = st.one_of(
    st.integers(-10, 10 ** 6).map(str),
    st.fractions().map(str),
    st.floats().map(repr),
    st.builds("{}e{}".format, st.integers(-9, 9), st.integers(-500, 500)),
    st.integers(0, 300).map(lambda depth: "(" * depth + "x1" + ")" * depth),
    st.sampled_from(["laplace", "example2", "custom", "auto", "yes", "off", "1/0",
                     "sin(pi*x1)", "1 + x1*x2", ""]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.sampled_from(CONFIG_KEYS + ["colour"]), CONFIG_VALUES),
                max_size=8),
       st.booleans(), st.booleans())
@example([("solver_tol", "1e999")], False, False)
@example([("a11", "(" * 200 + "x1" + ")" * 200)], True, False)
def test_parse_config_raises_nothing_but_config_errors(tmp_path, lines, custom, strict):
    # a custom problem first, so drawn coefficient expressions get parsed
    lines = [("problem", "custom")] * custom + lines
    path = tmp_path / "fuzz.cfg"
    path.write_text("".join("{} = {}\n".format(key, value) for key, value in lines),
                    encoding="utf-8")
    try:
        assert isinstance(parse_config(path, strict=strict), RunConfig)
    except ConfigError:
        pass


def test_readme_config_table_names_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| key | default | meaning |\n| --- | --- | --- |\n", 1)[1]
    rows = [line.split("|")[1].strip().strip("`").split()
            for line in table.split("\n\n", 1)[0].splitlines()]
    assert sorted(key for row in rows for key in row) == sorted(CONFIG_KEYS)
    assert ["a11", "a12", "a22", "phi", "rho"] in rows


def test_solve_minimal_run(tmp_path):
    config = parse_config(write_config(
        tmp_path, "mesh_h = 1/2\nlevels = 1\noutput = {}\n".format(tmp_path / "mini")))
    code, record = cmd_solve(config)
    assert code == EXIT_OK
    header, rows = read_csv(tmp_path / "mini_levels.csv")
    assert len(rows) == 1
    assert header[:5] == ["level", "h", "n_free", "time_assemble_s", "time_solve_s"]
    lam = float(rows[0][header.index("lambda_1")])
    assert lam >= EXACT_FIRST


def test_solve_six_eigenvalues_shrinking_errors(tmp_path):
    config = parse_config(write_config(
        tmp_path,
        "mesh_h = 1/6\nlevels = 4\neigen_count = 6\noutput = {}\n".format(
            tmp_path / "six")))
    code, record = cmd_solve(config)
    assert code == EXIT_OK
    header, rows = read_csv(tmp_path / "six_levels.csv")
    assert len(rows) == 4
    assert sum(1 for c in header if c.startswith("lambda_")) == 6
    for i in range(1, 7):
        errs = [float(r[header.index("err_lambda_{}".format(i))]) for r in rows]
        for k in range(3):
            assert 3.0 <= errs[k] / errs[k + 1] <= 5.5
    # energy-error cells: filled for the simple modes, empty inside clusters
    assert rows[-1][header.index("err_energy_1")] != ""
    assert rows[-1][header.index("err_energy_2")] == ""
    assert rows[-1][header.index("err_energy_4")] != ""
    # the summary reports each level's bordered solves, one entry per eigenpair
    summary = (tmp_path / "six_summary.txt").read_text().splitlines()
    start = next(i for i, l in enumerate(summary) if "MINRES iterations" in l) + 1
    for k, line in enumerate(summary[start:start + 3], start=1):
        head, residuals = line.split(";")
        level, *counts = head.split()
        assert int(level) == k
        assert counts == [str(c) for c in record.levels[k].pairs.iterations]
        assert len(residuals.split()) == 6
        assert all(float(r) <= config.solver_tol for r in residuals.split())


def test_solve_compare_direct_columns(tmp_path):
    config = parse_config(write_config(
        tmp_path,
        "problem = example2\nlevels = 2\neigen_count = 2\ncompare_direct = true\n"
        "output = {}\n".format(tmp_path / "cmp")))
    code, _ = cmd_solve(config)
    assert code == EXIT_OK
    header, rows = read_csv(tmp_path / "cmp_levels.csv")
    assert "lambda_dir_1" in header and "diff_dir_2" in header
    assert float(rows[0][header.index("diff_dir_1")]) == 0.0


def test_solve_deterministic_apart_from_timings(tmp_path):
    text = "mesh_h = 1/4\nlevels = 3\neigen_count = 2\noutput = {}\n"
    config_a = parse_config(write_config(tmp_path, text.format(tmp_path / "a"), "a.cfg"))
    config_b = parse_config(write_config(tmp_path, text.format(tmp_path / "b"), "b.cfg"))
    assert cmd_solve(config_a)[0] == EXIT_OK
    assert cmd_solve(config_b)[0] == EXIT_OK
    header, rows_a = read_csv(tmp_path / "a_levels.csv")
    _, rows_b = read_csv(tmp_path / "b_levels.csv")
    time_cols = {header.index("time_assemble_s"), header.index("time_solve_s")}
    for row_a, row_b in zip(rows_a, rows_b):
        for j, (cell_a, cell_b) in enumerate(zip(row_a, row_b)):
            if j not in time_cols:
                assert cell_a == cell_b


def test_summary_orders_match_csv_recomputation(tmp_path):
    config = parse_config(write_config(
        tmp_path, "mesh_h = 1/6\nlevels = 4\noutput = {}\n".format(tmp_path / "ord")))
    cmd_solve(config)
    header, rows = read_csv(tmp_path / "ord_levels.csv")
    hs = [float(r[header.index("h")]) for r in rows][-3:]
    errs = [float(r[header.index("err_lambda_1")]) for r in rows][-3:]
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    summary = (tmp_path / "ord_summary.txt").read_text()
    line = next(l for l in summary.splitlines() if "observed eigenvalue orders" in l)
    reported = float(line.rsplit(":", 1)[1])
    assert reported == pytest.approx(slope, abs=5e-4)


def test_solve_aborts_with_partial_csv(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise SolverError("synthetic failure")

    monkeypatch.setattr(newteig.multilevel, "newton_step_multi", boom)
    config = parse_config(write_config(
        tmp_path, "mesh_h = 1/4\nlevels = 3\noutput = {}\n".format(tmp_path / "abort")))
    code, record = cmd_solve(config)
    assert code == EXIT_SOLVER
    text = (tmp_path / "abort_levels.csv").read_text()
    assert text.rstrip().endswith("# ABORTED level=1")
    header, rows = read_csv(tmp_path / "abort_levels.csv")
    assert len(rows) == 1      # the coarse level was flushed
    # an aborted run is not evaluated: no error against a reference
    assert math.isnan(float(rows[0][header.index("err_lambda_1")]))
    assert rows[0][header.index("err_energy_1")] == ""


def test_main_failed_evaluation_keeps_the_solved_rows(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise SolverError("synthetic reference failure")

    monkeypatch.setattr(newteig.reference, "direct_solve", boom)
    path = write_config(tmp_path, "problem = example2\nmesh_h = 1/4\nlevels = 3\n"
                        "output = {}\n".format(tmp_path / "eval"))
    assert main(["solve", str(path)]) == EXIT_SOLVER
    text = (tmp_path / "eval_levels.csv").read_text()
    assert text.rstrip().endswith("# ABORTED evaluation")
    header, rows = read_csv(tmp_path / "eval_levels.csv")
    assert len(rows) == 3
    for row in rows:
        assert float(row[header.index("lambda_1")]) > 0
        assert math.isnan(float(row[header.index("err_lambda_1")]))
        assert row[header.index("err_energy_1")] == ""
    assert not (tmp_path / "eval_summary.txt").exists()


def test_compare_direct_reuses_the_reference_solves(tmp_path, monkeypatch):
    sizes = []
    solve = newteig.reference.direct_solve

    def counting(forms, *args, **kwargs):
        sizes.append(forms.n_free)
        return solve(forms, *args, **kwargs)

    monkeypatch.setattr(newteig.reference, "direct_solve", counting)
    path = write_config(tmp_path, "problem = example2\nmesh_h = 1/4\nlevels = 3\n"
                        "eigen_count = 2\ncompare_direct = true\n"
                        "output = {}\n".format(tmp_path / "cmp"))
    assert main(["solve", str(path)]) == EXIT_OK
    # the two finest pencils, solved once for the Richardson reference, finest first
    assert sizes == [225, 49]


def test_reference_solves_run_beside_the_newton_steps(tmp_path, monkeypatch):
    calls = []
    solve = newteig.reference.direct_solve

    def spy(forms, *args, **kwargs):
        calls.append((forms.n_free, threading.current_thread()))
        return solve(forms, *args, **kwargs)

    monkeypatch.setattr(newteig.reference, "direct_solve", spy)
    before = set(threading.enumerate())
    path = write_config(tmp_path, "problem = example2\nmesh_h = 1/4\nlevels = 4\n"
                        "compare_direct = true\noutput = {}\n".format(tmp_path / "bg"))
    assert main(["solve", str(path)]) == EXIT_OK
    # the two finest pencils first, then the remaining level above the coarse one
    assert [n for n, _ in calls] == [961, 225, 49]
    assert all(thread is not threading.main_thread() for _, thread in calls)
    assert set(threading.enumerate()) == before


def test_failed_level_wins_over_a_failed_reference(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise SolverError("synthetic reference failure")

    monkeypatch.setattr(newteig.reference, "direct_solve", boom)
    monkeypatch.setattr(newteig.multilevel, "coarse_solve", failing_coarse_solve)
    before = set(threading.enumerate())
    path = write_config(tmp_path, "problem = example2\nlevels = 3\n"
                        "output = {}\n".format(tmp_path / "fail"))
    assert main(["solve", str(path)]) == EXIT_SOLVER
    assert (tmp_path / "fail_levels.csv").read_text().rstrip().endswith("# ABORTED level=0")
    assert set(threading.enumerate()) == before


def test_smoother_cap_keeps_a_distorted_anisotropic_run_solvable(tmp_path):
    # the uncapped w = 0.8 / k_ii Jacobi sweep diverges on level 1 here (largest
    # eigenvalue of diag(K)^-1 K above 2.5), and MINRES stopped on the indefinite cycle
    save_mesh(renumbered_square(8, 4, jitter=0.15), tmp_path / "square.mesh")
    path = write_config(tmp_path, "problem = custom\nmesh_file = {}\nlevels = 3\n"
                        "eigen_count = 2\na12 = -0.8\noutput = {}\n".format(
                            tmp_path / "square.mesh", tmp_path / "aniso"))
    assert main(["solve", str(path)]) == EXIT_OK
    header, rows = read_csv(tmp_path / "aniso_levels.csv")
    assert len(rows) == 3


def test_main_failed_coarse_solve_aborts_at_level_zero(tmp_path, monkeypatch):
    monkeypatch.setattr(newteig.multilevel, "coarse_solve", failing_coarse_solve)
    path = write_config(tmp_path, "problem = example2\nlevels = 3\n"
                        "output = {}\n".format(tmp_path / "fail"))
    assert main(["solve", str(path)]) == EXIT_SOLVER
    text = (tmp_path / "fail_levels.csv").read_text()
    assert text.rstrip().endswith("# ABORTED level=0")
    assert read_csv(tmp_path / "fail_levels.csv")[1] == []


def test_main_coarse_space_of_any_size_solves(tmp_path):
    # 3,969 free DOFs on the coarse level, far above the dense cutoff of its eigensolve
    path = write_config(tmp_path, "mesh_h = 1/64\nlevels = 1\noutput = {}\n".format(
        tmp_path / "big"))
    assert main(["solve", str(path)]) == EXIT_OK
    header, rows = read_csv(tmp_path / "big_levels.csv")
    assert len(rows) == 1 and rows[0][header.index("n_free")] == "3969"


def test_solver_runs_no_reference_solves(monkeypatch):
    import newteig as nt

    def forbidden(*args, **kwargs):
        raise AssertionError("the solver called reference.direct_solve")

    monkeypatch.setattr(newteig.reference, "direct_solve", forbidden)
    hier = nt.build_hierarchy(unit_square_mesh(1 / 4), 3)
    levels = nt.run_multilevel(hier, nt.example2_coefficients(), 2)
    assert len(levels) == 3
    levels = run_bench(RunConfig(problem="example2", mesh_h=1 / 4, eigen_count=2,
                                 bench_max_levels=3, output="unused"))
    assert len(levels) == 3


def test_bench_two_depths_lists_iterations_per_level(tmp_path):
    config = parse_config(write_config(
        tmp_path, "mesh_h = 1/4\nbench_max_levels = 3\noutput = {}\n".format(
            tmp_path / "bench")))
    code, levels = cmd_bench(config)
    assert code == EXIT_OK
    assert math.isfinite(local_exponent(levels))
    text = (tmp_path / "bench_work.txt").read_text()
    assert "last two doublings of N: N^{:.3f}".format(local_exponent(levels)) in text
    # per-level table: no MINRES on the coarse level, one count per step after
    assert levels[0].pairs.iterations is None
    rows = text.split("deepest run per level")[1].splitlines()[1:4]
    assert rows[0].split()[-1] == "-"
    assert [row.split()[-1] for row in rows[1:]] == [
        str(rec.pairs.iterations[0]) for rec in levels[1:]]


def test_bench_one_depth_skips_the_local_exponent(tmp_path):
    path = write_config(tmp_path, "mesh_h = 1/4\nbench_max_levels = 2\noutput = {}\n".format(
        tmp_path / "bench"))
    assert main(["bench", str(path)]) == EXIT_OK
    text = (tmp_path / "bench_work.txt").read_text()
    assert "local exponent skipped" in text
    assert "hierarchy local exponent skipped" in text


def test_bench_work_file_agrees_with_itself(tmp_path):
    # each depth's total sums the printed rows of its levels, and the printed
    # exponent is the slope between the two deepest totals; every printed
    # second is rounded to 0.5e-4
    config = parse_config(write_config(
        tmp_path, "mesh_h = 1/4\nbench_max_levels = 4\noutput = {}\n".format(
            tmp_path / "bench")))
    _, levels = cmd_bench(config)
    sweep, table, exponent = (tmp_path / "bench_work.txt").read_text().split("\n\n")[:3]
    sweep = [line.split() for line in sweep.splitlines()[1:]]
    table = [line.split() for line in table.splitlines()[1:]]
    assert [int(row[0]) for row in sweep] == [2, 3, 4]
    assert [int(row[0]) for row in table] == [rec.n_free for rec in levels]
    half = 0.5e-4
    for n, size, total in sweep:
        n = int(n)
        assert int(size) == int(table[n - 1][0])
        rows = sum(float(row[1]) + float(row[2]) for row in table[:n])
        assert abs(float(total) - rows) <= (2 * n + 1) * half + 1e-12
    totals = np.cumsum([rec.wall_time_assemble + rec.wall_time_solve for rec in levels])
    assert [row[2] for row in sweep] == ["{:.4f}".format(t) for t in totals[1:]]
    slope = math.log(totals[-1] / totals[-2]) / math.log(levels[-1].n_free / levels[-2].n_free)
    assert local_exponent(levels) == pytest.approx(slope, rel=1e-12)
    assert exponent.strip() == "local exponent over the last two doublings of N: N^{:.3f}".format(
        slope)
    # the same slope, bracketed from the printed totals alone
    printed = float(exponent.rsplit("N^", 1)[1])
    low, high = (float(row[2]) for row in sweep[-2:])
    ratio = int(sweep[-1][1]) / int(sweep[-2][1])
    bounds = [math.log(a / b) / math.log(ratio)
              for a in (high - half, high + half) for b in (low - half, low + half)]
    assert min(bounds) - 5e-4 <= printed <= max(bounds) + 5e-4


def test_bench_work_file_times_the_hierarchy(tmp_path, monkeypatch):
    # one row per level with the refine-and-validate seconds of the hierarchy
    # the sweep ran on (none for the coarse level), and their local exponent
    built = []
    build = newteig.cli._build_hierarchy
    monkeypatch.setattr(newteig.cli, "_build_hierarchy",
                        lambda *args: built.append(build(*args)) or built[-1])
    config = parse_config(write_config(
        tmp_path, "mesh_h = 1/4\nbench_max_levels = 4\noutput = {}\n".format(
            tmp_path / "bench")))
    _, levels = cmd_bench(config)
    (hierarchy,) = built
    assert len(hierarchy.refine_seconds) == 3 and min(hierarchy.refine_seconds) > 0
    table, exponent = (tmp_path / "bench_work.txt").read_text().split("\n\n")[3:5]
    assert table.splitlines()[0] == "hierarchy per level (N_k, refine-and-validate s)"
    rows = [line.split() for line in table.splitlines()[1:]]
    assert rows == [[str(rec.n_free), "{:.4f}".format(s) if k else "-"]
                    for k, (rec, s) in enumerate(zip(levels, [0.0] + hierarchy.refine_seconds))]
    totals = np.cumsum(hierarchy.refine_seconds)
    slope = math.log(totals[-1] / totals[-2]) / math.log(levels[-1].n_free / levels[-2].n_free)
    assert exponent.strip() == ("hierarchy local exponent over the last two doublings of N: "
                                "N^{:.3f}".format(slope))


def test_bench_work_ratios_with_min_timing():
    # Per-level Newton step work.  A step costs its MINRES iterations times
    # O(N) work each, so with an optimal multigrid preconditioner the
    # iteration counts stay flat as N grows four-fold per level.  The counts
    # are deterministic, unlike wall-clock times on a shared host, which are
    # printed only.
    import newteig as nt

    hier = nt.build_hierarchy(unit_square_mesh(1 / 6), 6)
    levels = nt.run_multilevel(hier, nt.laplace_coefficients(), 1)
    counts = [rec.pairs.iterations[0] for rec in levels[1:]]
    times = [rec.wall_time_solve for rec in levels[1:]]
    print("MINRES iterations on levels 1-5 {}; wall-clock ratios {} (not asserted)".format(
        counts, [round(times[i + 1] / times[i], 2) for i in range(len(times) - 1)]))
    assert all(8 <= count <= 20 for count in counts)
    assert counts[-1] <= 1.25 * counts[1]


def test_main_exit_codes(tmp_path, capsys):
    good = write_config(tmp_path, "mesh_h = 1/2\nlevels = 1\noutput = {}\n".format(
        tmp_path / "ok"))
    assert main(["solve", str(good)]) == EXIT_OK
    bad = write_config(tmp_path, "levels = 0\n", "bad.cfg")
    assert main(["solve", str(bad)]) == EXIT_CONFIG
    assert main(["solve", str(tmp_path / "missing.cfg")]) == EXIT_IO
    # a key the program never had, and one it no longer has
    for key in ("colour = blue", "dense_cap = 3000"):
        unknown = write_config(tmp_path, "{}\noutput = {}\n".format(key, tmp_path / "uk"),
                               "unknown.cfg")
        assert main(["--strict", "solve", str(unknown)]) == EXIT_CONFIG
        capsys.readouterr()
        assert main(["solve", str(unknown)]) == EXIT_OK
        name = key.split()[0]
        assert "warning: unknown key '{}' (line 1)".format(name) in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "a11 = -1", "a12 = 5", "rho = 0*x1 - 1", "rho = 1/(x1-x1)", "phi = 0/(x1-x1)"])
def test_main_bad_coefficients_exit_config(tmp_path, capsys, line):
    path = write_config(tmp_path, "problem = custom\nmesh_h = 1/4\nlevels = 2\n"
                        "{}\noutput = {}\n".format(line, tmp_path / "bad"))
    assert main(["solve", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "quadrature point" in err
    assert len(err.splitlines()) == 1


def test_main_eigen_count_above_coarse_space_exit_config(tmp_path, capsys):
    path = write_config(tmp_path, "mesh_h = 1/2\neigen_count = 2\noutput = {}\n".format(
        tmp_path / "big"))
    assert main(["solve", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "free DOFs" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "big_levels.csv").exists()


@pytest.mark.parametrize("line", [
    "solver_tol = 0", "solver_tol = -1", "solver_tol = 1e-30", "solver_tol = 1",
    "direct_tol = 0", "direct_tol = 1e-300", "direct_tol = 1"])
def test_main_bad_tolerance_exit_config(tmp_path, capsys, monkeypatch, line):
    def no_hierarchy(*args, **kwargs):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(newteig.cli, "build_hierarchy", no_hierarchy)
    path = write_config(tmp_path, "mesh_h = 1/4\nlevels = 2\n{}\noutput = {}\n".format(
        line, tmp_path / "bad"))
    assert main(["solve", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and line.split()[0] in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "bad_levels.csv").exists()


@pytest.mark.parametrize("line", ["solver_tol = 1e999", "direct_tol = -1e400"])
def test_main_number_beyond_double_range_exit_config(tmp_path, capsys, line):
    path = write_config(tmp_path, "mesh_h = 1/4\n{}\n".format(line))
    assert main(["solve", str(path)]) == EXIT_CONFIG
    key, _, value = line.split()
    assert capsys.readouterr().err == (
        "config error: line 2: key {!r} expects a number within double range, "
        "got {!r}\n".format(key, value))


@pytest.mark.parametrize("line", ["solver_tol = 1e-10000000", "direct_tol = 5E+99999999999",
                                  "mesh_h = 1e-1_000_000"])
def test_main_huge_exponent_exit_config_at_once(tmp_path, capsys, line):
    # Fraction would build 10**exponent exactly: 8.9 s for the first line alone
    def alarm(*_):
        raise TimeoutError("the exponent was expanded")

    path = write_config(tmp_path, "levels = 2\n{}\n".format(line))
    previous = signal.signal(signal.SIGALRM, alarm)
    signal.alarm(2)
    try:
        code = main(["solve", str(path)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == EXIT_CONFIG
    key, _, value = line.split()
    assert capsys.readouterr().err == (
        "config error: line 2: key {!r} expects a number within double range, "
        "got {!r}\n".format(key, value))


@pytest.mark.parametrize("text, value", [
    ("1e-300", 1e-300), ("2.5E+2", 250.0), ("1_0e-1_0", 1e-9), ("1/6", 1 / 6),
    ("0." + "0" * 500 + "1e490", 1e-11), ("1" + "0" * 600 + "e-608", 1e-8)])
def test_exponents_within_reach_parse_as_before(text, value):
    assert newteig.cli._coerce("solver_tol", float, text, 1) == value


def test_main_vertex_cap_beyond_int32_exit_config(tmp_path, capsys):
    path = write_config(tmp_path, "mesh_h = 1/4\nlevels = 2\nmax_vertices = {}\n".format(
        2 ** 31))
    assert main(["solve", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: the vertex cap 2147483648 must be below 2**31")
    assert len(err.splitlines()) == 1


def test_main_memory_peak(tmp_path):
    # a whole laplace run to 6 levels (65,025 finest DOFs): mesh, assembly,
    # Newton steps and evaluation; a whole-level temporary in any of them shows
    path = write_config(tmp_path, "mesh_h = 1/8\nlevels = 6\noutput = {}\n".format(
        tmp_path / "peak"))
    tracemalloc.start()
    try:
        assert main(["solve", str(path)]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 38 * 2 ** 20


@pytest.mark.parametrize("h, levels, cap, level, vertices", [
    ("1/8", 1, 80, 0, 81), ("1/4", 3, 200, 2, 289)])
def test_main_vertex_cap_precedes_the_grid(tmp_path, capsys, monkeypatch, h, levels, cap,
                                           level, vertices):
    def no_grid(*args, **kwargs):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(newteig.cli, "unit_square_mesh", no_grid)
    path = write_config(tmp_path, "mesh_h = {}\nlevels = {}\nmax_vertices = {}\n".format(
        h, levels, cap))
    assert main(["solve", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: level {} of the hierarchy would have {} vertices, exceeding the cap of "
        "{}\n".format(level, vertices, cap))


def test_main_vertex_cap_names_the_first_level_past_it(tmp_path, capsys):
    # the projection stops at level 9 (9,443,329 vertices, the default cap is
    # 8,000,000) rather than printing a count of some 60,000 digits
    path = write_config(tmp_path, "mesh_h = 1/6\nlevels = 100000\n")
    assert main(["solve", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == ("error: level 9 of the hierarchy would have 9443329 "
                                       "vertices, exceeding the cap of 8000000\n")


@pytest.mark.parametrize("text", [
    "(" * 200 + "x1" + ")" * 200, "+".join(["x1"] * 1000), "-" * 5000 + "x1"],
    ids=["200 parentheses", "1000 terms", "5000 minuses"])
def test_main_deep_expression_exit_config(tmp_path, capsys, text):
    path = write_config(tmp_path, "problem = custom\nmesh_h = 1/4\nlevels = 2\n"
                        "a11 = {}\noutput = {}\n".format(text, tmp_path / "deep"))
    assert main(["solve", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: bad a11 expression: expression has ")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "deep_levels.csv").exists()


def test_main_loose_solver_tol_is_the_only_gate(tmp_path):
    # the verified residual's bottom block is the constraint error, so a loose
    # tolerance gates the constraint rows too, with no tighter second check
    path = write_config(tmp_path, "levels = 4\nsolver_tol = 1e-3\noutput = {}\n".format(
        tmp_path / "loose"))
    assert main(["solve", str(path)]) == EXIT_OK
    summary = (tmp_path / "loose_summary.txt").read_text().splitlines()
    start = next(i for i, l in enumerate(summary) if "MINRES iterations" in l) + 1
    residuals = [float(r) for line in summary[start:start + 3]
                 for r in line.split(";")[1].split()]
    assert len(residuals) == 3 and all(r <= 1e-3 for r in residuals)


def test_summary_and_work_name_the_gate(tmp_path):
    # the iteration counts mean little without the gate MINRES stopped at
    base = "mesh_h = 1/4\nlevels = 2\nbench_max_levels = 2\nsolver_tol = 1e-6\noutput = {}\n"
    path = write_config(tmp_path, base.format(tmp_path / "gate"))
    assert main(["solve", str(path)]) == EXIT_OK
    assert main(["bench", str(path)]) == EXIT_OK
    summary = (tmp_path / "gate_summary.txt").read_text()
    assert ("MINRES iterations ; verified relative residuals (gate solver_tol = 1e-06)"
            in summary)
    work = (tmp_path / "gate_work.txt").read_text()
    assert "MINRES iterations at gate solver_tol = 1e-06)" in work


def load_perfbench(name):
    """A module of the benchmark harness, loaded by path (it is no package)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, Path(__file__).resolve().parents[1] / "perfbench" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_configs_still_parse(tmp_path, capsys, monkeypatch):
    # the benchmark's input writer needs only numpy; a config key it writes
    # that the program drops may only draw the unknown-key warning
    inputs = load_perfbench("inputs")
    for name, workload in sorted(inputs.WORKLOADS.items()):
        (tmp_path / name).mkdir()
        parse_config(inputs.write_inputs(workload, 1, str(tmp_path / name), levels=2))
        for line in capsys.readouterr().err.splitlines():
            assert re.fullmatch(r"warning: unknown key 'threads' \(line \d+\)", line)
    monkeypatch.chdir(tmp_path / "laplace_deep")
    assert main(["solve", "run.cfg"]) == EXIT_OK


def test_benchmark_reads_the_library_api(tmp_path, monkeypatch):
    # the benchmark checks every run against child._reference and traces the
    # functions named in spans.TRACED; spans.install is not called here, as it
    # rewrites module globals.  Three levels: after a single Newton step the
    # finest value is still 3.6e-8 from the direct one, above REFERENCE_RTOL
    inputs, child, spans, checks = (load_perfbench(name)
                                    for name in ("inputs", "child", "spans", "checks"))
    monkeypatch.chdir(tmp_path)
    inputs.write_inputs(inputs.WORKLOADS["laplace_deep"], 1, str(tmp_path), levels=3)
    config = parse_config("run.cfg")
    reference = child._reference(newteig.cli._build_hierarchy(config, config.levels),
                                 "run.cfg")
    # every BorderedMatrix a Newton step builds passes through the span annotation
    tracer = spans.Tracer()
    monkeypatch.setattr(newteig.eigen_newton, "solve_bordered",
                        tracer.wrap("linalg.solve_bordered", solve_bordered))
    assert main(["solve", "run.cfg"]) == EXIT_OK
    infos = [span["info"] for span in tracer.spans]
    assert [(info["n"], info["m"]) for info in infos] == [(225, 1), (reference["n_free"], 1)]
    assert all(info["core_nnz"] >= info["n"] for info in infos)
    header, rows = read_csv(tmp_path / "out_levels.csv")
    assert reference["n_free"] == int(rows[-1][header.index("n_free")])
    finest = float(rows[-1][header.index("lambda_1")])
    assert abs(reference["values"][0] - finest) <= checks.REFERENCE_RTOL * finest
    # the span annotations read these arguments by keyword or position
    assert next(iter(inspect.signature(newteig.newton_step_multi).parameters)) == "forms_fine"
    assert next(iter(inspect.signature(solve_bordered).parameters)) == "matrix"
    unresolved = []
    for module, attr, _ in spans.TRACED:
        owner = importlib.import_module("newteig." + module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            unresolved.append("{}.{}".format(module, attr))
    # both were deleted from the library; the frozen table still names them
    assert unresolved == ["mesh.Mesh.edges", "eigen_newton.newton_step_single"]


def test_main_laplace_beyond_twenty_eigenvalues(tmp_path):
    path = write_config(tmp_path, "mesh_h = 1/8\nlevels = 2\neigen_count = 21\n"
                        "output = {}\n".format(tmp_path / "many"))
    assert main(["solve", str(path)]) == EXIT_OK
    header, rows = read_csv(tmp_path / "many_levels.csv")
    assert len(rows) == 2
    col = header.index("err_energy_21")
    assert all(row[col] == "" for row in rows)
    assert all(row[header.index("err_energy_20")] != "" for row in rows)  # (4, 4), simple


def test_main_meshinfo(tmp_path, capsys):
    mesh = unit_square_mesh(1 / 3)
    path = tmp_path / "square.mesh"
    save_mesh(mesh, path)
    assert main(["meshinfo", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "vertices:        16" in out
    assert "triangles:       18" in out


@pytest.mark.parametrize("spelling", ["nan", "inf", "-inf", "1e999"])
def test_meshinfo_rejects_non_finite_coordinates(tmp_path, capsys, spelling):
    path = tmp_path / "square.mesh"
    save_mesh(unit_square_mesh(1 / 2), path)
    lines = path.read_text().splitlines()
    lines[5] = "{} 0.5 0".format(spelling)          # vertex 4, the interior one
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshFormatError) as info:
        load_mesh(path)
    assert info.value.line == 6
    assert str(info.value) == "line 6: vertex coordinates must be finite"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["meshinfo", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "error: line 6: vertex coordinates must be finite\n"


def test_main_meshinfo_missing_file(tmp_path):
    assert main(["meshinfo", str(tmp_path / "nope.mesh")]) == EXIT_IO


FOLDED_SQUARE = "mesh2d 4 2\n0 0 1\n1 0 1\n1 1 1\n0 1 1\n0 1 2\n0 1 3\n"


def test_folded_mesh_file_exits_config(tmp_path, capsys):
    path = tmp_path / "folded.mesh"
    path.write_text(FOLDED_SQUARE)
    config = write_config(tmp_path, "mesh_file = {}\nlevels = 2\noutput = {}\n".format(
        path, tmp_path / "folded"))
    for argv in (["meshinfo", str(path)], ["solve", str(config)]):
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: edge (0, 1) runs the same way in both its triangles: they overlap\n")
    assert not (tmp_path / "folded_levels.csv").exists()


def _mutate_mesh_lines(lines, edits):
    lines = list(lines)
    for kind, where, token in edits:
        i = where % (len(lines) or 1)
        if kind == "token" and lines:
            parts = lines[i].split() or [""]
            parts[(where // len(lines)) % len(parts)] = token
            lines[i] = " ".join(parts)
        elif kind == "insert":
            lines.insert(i, token)
        elif kind == "delete" and lines:
            del lines[i]
        elif kind == "duplicate" and lines:
            lines.insert(i, lines[i])
        elif kind == "swap" and lines:
            j = (where // len(lines)) % len(lines)
            lines[i], lines[j] = lines[j], lines[i]
    return lines


MESH_TOKENS = st.one_of(
    st.integers(-2, 12).map(str),
    st.sampled_from(["0.5", "1e999", "nan", "-inf", "1e308", "-1e308", "1e-320", "mesh2d",
                     "mesh2d 9 8", "#", "0 1 2", "4 0 0", "99999999999999999999", ""]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=4))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.sampled_from(["token", "insert", "delete", "duplicate", "swap"]),
                          st.integers(0, 10 ** 4), MESH_TOKENS), min_size=1, max_size=4))
@example([("token", 2997, "1e308")])       # vertex 8 at y = 1e308: squared lengths overflow
def test_fuzzed_mesh_files_fail_as_mesh_errors(tmp_path, capsys, edits):
    # a 9-vertex, 8-triangle file with lines and tokens mutated: loading raises
    # nothing but mesh errors, and meshinfo reports them in one line with exit 2
    base = tmp_path / "base.mesh"
    save_mesh(unit_square_mesh(1 / 2), base)
    path = tmp_path / "fuzz.mesh"
    path.write_text("\n".join(_mutate_mesh_lines(base.read_text().splitlines(), edits)) + "\n",
                    encoding="utf-8")
    try:
        load_mesh(path)
        expected = EXIT_OK
    except MeshError:
        expected = EXIT_CONFIG
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["meshinfo", str(path)]) == expected
    err = capsys.readouterr().err
    if expected == EXIT_CONFIG:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    else:
        assert err == ""


def test_solve_from_mesh_file(tmp_path):
    mesh = unit_square_mesh(1 / 3)
    mesh_path = tmp_path / "square.mesh"
    save_mesh(mesh, mesh_path)
    config = parse_config(write_config(
        tmp_path, "mesh_file = {}\nlevels = 2\noutput = {}\n".format(
            mesh_path, tmp_path / "file")))
    code, record = cmd_solve(config)
    assert code == EXIT_OK
    assert record.levels[0].n_free == 4


GOLDEN = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("config, golden", [
    ("problem = laplace\nmesh_h = 1/8\nlevels = 4\neigen_count = 1\n",
     "laplace_h8_l4_m1_levels.csv"),
    ("problem = example2\nmesh_h = 1/6\nlevels = 3\neigen_count = 3\n",
     "example2_h6_l3_m3_levels.csv"),
    # every level above the dense cutoff of the pencil eigensolver
    ("problem = example2\nmesh_h = 1/20\nlevels = 3\neigen_count = 3\n",
     "example2_h20_l3_m3_levels.csv"),
    # a renumbered, jittered mesh file: unstructured numbering through load,
    # validation, refinement, assembly, energy errors and direct comparison
    ("problem = laplace\nmesh_file = {mesh}\nlevels = 3\neigen_count = 3\n"
     "compare_direct = true\n", "laplace_file12_l3_m3_levels.csv"),
    # all five coefficient expressions (anisotropic, reaction, varying weight)
    # at quadrature order 5 on the same kind of mesh file
    ("problem = custom\nmesh_file = {mesh}\nlevels = 3\neigen_count = 2\n"
     "a11 = 1 + x1^2\na12 = 0.6*sin(pi*x1)*sin(pi*x2)\na22 = 1 + exp(-x2)/2\n"
     "phi = 4*(x1 - 1/2)^2\nrho = 1 + x1*x2\n", "custom_file12_l3_m2_levels.csv"),
])
def test_csv_matches_golden(tmp_path, config, golden):
    # tests/data holds the reference CSVs of these runs; a change that only
    # reorders floating-point work keeps every non-timing cell within 1e-12
    # relative (eigenvalues) or 1e-12 * lambda (errors and differences)
    if "{mesh}" in config:
        save_mesh(renumbered_square(12, 5, jitter=0.15), tmp_path / "square.mesh")
        config = config.format(mesh=tmp_path / "square.mesh")
    path = write_config(tmp_path, config + "output = {}\n".format(tmp_path / "run"))
    assert main(["solve", str(path)]) == EXIT_OK
    header, rows = read_csv(tmp_path / "run_levels.csv")
    gold_header, gold_rows = read_csv(GOLDEN / golden)
    assert header == gold_header and len(rows) == len(gold_rows)
    for row, gold in zip(rows, gold_rows):
        lam = max(float(v) for h, v in zip(header, gold) if h.startswith("lambda_"))
        for name, cell, want in zip(header, row, gold):
            if name.startswith("time_"):
                continue
            if name in ("level", "n_free") or want == "":
                assert cell == want, name
            elif name.startswith(("err_", "diff_")):
                assert abs(float(cell) - float(want)) <= 1e-12 * lam, name
            else:
                assert abs(float(cell) - float(want)) <= 1e-12 * abs(float(want)), name
