"""Command-line entry point: convergence studies, comparisons and scaling runs.

Configuration files are flat ``key = value`` text, ``#`` starts a comment.
An empty file runs the default study (laplace, h = 1/6, 3 levels, 1
eigenvalue).  ``solve`` writes ``<output>_levels.csv`` and
``<output>_summary.txt``; ``bench`` writes ``<output>_work.txt``.
"""

import argparse
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np

from . import reference
from .assemble import CoefficientSet, example2_coefficients, laplace_coefficients
from .expressions import ExpressionError, parse_expression
from .linalg import DEFAULT_SOLVER_TOL, SolverError
from .mesh import (DEFAULT_VERTEX_CAP, MeshError, build_hierarchy, check_vertex_cap,
                   load_mesh, unit_square_counts, unit_square_mesh)
from .multilevel import (MultilevelError, SolveOptions, assemble_levels, check_eigen_count,
                         run_multilevel)
from .reference import DEFAULT_DIRECT_TOL, compare_with_direct, evaluate, reference_levels

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4


class ConfigError(Exception):
    """Invalid run configuration; carries the offending line when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line {}: {}".format(line, message)
        super().__init__(message)
        self.line = line


@dataclass
class RunConfig:
    """All knobs of a run, populated from a config file with defaults."""

    problem: str = "laplace"
    mesh_h: float = 1.0 / 6.0
    mesh_file: str = ""
    levels: int = 3
    eigen_count: int = 1
    quad_order: int = 0                  # 0 = auto, see SolveOptions.effective_quad_order
    solver_tol: float = DEFAULT_SOLVER_TOL
    direct_tol: float = DEFAULT_DIRECT_TOL
    max_vertices: int = DEFAULT_VERTEX_CAP
    compare_direct: bool = False
    bench_max_levels: int = 6
    output: str = "run"
    a11: str = ""
    a12: str = ""
    a22: str = ""
    phi: str = ""
    rho: str = ""
    expressions: dict = field(default_factory=dict, repr=False)

    def validate(self):
        if self.problem not in ("laplace", "example2", "custom"):
            raise ConfigError("problem must be laplace, example2 or custom, "
                              "got {!r}".format(self.problem))
        if self.levels < 1:
            raise ConfigError("levels must be at least 1")
        if self.eigen_count < 1:
            raise ConfigError("eigen_count must be at least 1")
        if self.quad_order not in (0, 2, 5):
            raise ConfigError("quad_order must be 2, 5 or auto")
        eps = float(np.finfo(float).eps)
        for key in ("solver_tol", "direct_tol"):
            if not eps <= getattr(self, key) < 1:
                raise ConfigError("{} must lie in [{:.3g}, 1), got {!r}: no double-precision "
                                  "solve meets a tolerance below machine epsilon, and one of "
                                  "1 or more accepts an unconverged result".format(
                                      key, eps, getattr(self, key)))
        if self.bench_max_levels < 2:
            raise ConfigError("bench_max_levels must be at least 2")
        if not self.mesh_file:
            frac = Fraction(self.mesh_h).limit_denominator(10 ** 9)
            if frac.numerator != 1 or frac.denominator < 1:
                raise ConfigError("mesh_h must be the reciprocal of an integer, "
                                  "got {!r}".format(self.mesh_h))
        for key in ("a11", "a12", "a22", "phi", "rho"):
            text = getattr(self, key)
            if text and self.problem != "custom":
                raise ConfigError("coefficient key {!r} requires problem=custom".format(key))
            if text:
                try:
                    self.expressions[key] = parse_expression(text)
                except ExpressionError as exc:
                    raise ConfigError("bad {} expression: {}".format(key, exc)) from exc

    def coefficients(self):
        if self.problem == "laplace":
            return laplace_coefficients()
        if self.problem == "example2":
            return example2_coefficients()
        one = lambda x, y: np.ones_like(np.asarray(x, dtype=float))
        zero = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
        e11 = self.expressions.get("a11", one)
        e12 = self.expressions.get("a12", zero)
        e22 = self.expressions.get("a22", one)

        def diffusion(x, y):
            out = np.empty((len(x), 2, 2))
            out[:, 0, 0] = e11(x, y)
            out[:, 0, 1] = e12(x, y)
            out[:, 1, 0] = out[:, 0, 1]
            out[:, 1, 1] = e22(x, y)
            return out

        return CoefficientSet(diffusion=diffusion,
                              reaction=self.expressions.get("phi", zero),
                              weight=self.expressions.get("rho", one),
                              preset="custom")

    def solve_options(self):
        return SolveOptions(quad_order=self.quad_order, solver_tol=self.solver_tol)


_BOOL_WORDS = {"true": True, "yes": True, "1": True, "on": True,
               "false": False, "no": False, "0": False, "off": False}
# the decimal exponent of a number, digits only, as `Fraction` reads it
_EXPONENT = re.compile(r"e[-+]?(\d[\d_]*)\s*\Z", re.IGNORECASE)


def _coerce(name, kind, raw, line):
    if kind is bool:
        if raw.lower() not in _BOOL_WORDS:
            raise ConfigError("key {!r} expects a boolean, got {!r}".format(name, raw), line)
        return _BOOL_WORDS[raw.lower()]
    if kind is int:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError("key {!r} expects an integer, got {!r}".format(name, raw),
                              line) from None
    if kind is float:
        match = _EXPONENT.search(raw)
        digits = match.group(1).replace("_", "").lstrip("0") if match else ""
        bound = len(raw) + 400
        try:
            # Fraction builds 10**exponent exactly, which takes seconds to hours for
            # a long exponent; past `bound` no mantissa of this length brings the
            # value between 1e-400 and 1e400, so it overflows or rounds to zero
            if len(digits) > len(str(bound)) or int(digits or "0") > bound:
                raise OverflowError
            return float(Fraction(raw))
        except (ValueError, ZeroDivisionError):
            raise ConfigError("key {!r} expects a number, got {!r}".format(name, raw),
                              line) from None
        except OverflowError:
            raise ConfigError("key {!r} expects a number within double range, got {!r}"
                              .format(name, raw), line) from None
    return raw


def parse_config(path, strict=False):
    """Read a ``key = value`` config file into a validated RunConfig.

    Unknown keys raise in strict mode and warn otherwise; either way the
    report names the key and its line number.  Fractions like ``1/6`` are
    accepted for numeric values.
    """
    with open(path, "r", encoding="utf-8") as f:
        raw = f.readlines()
    types = {f.name: f.type for f in fields(RunConfig) if f.name != "expressions"}
    config = RunConfig()
    for lineno, text in enumerate(raw, start=1):
        stripped = text.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError("expected 'key = value', got {!r}".format(stripped), lineno)
        key, raw_value = (part.strip() for part in stripped.split("=", 1))
        if key == "quad_order" and raw_value == "auto":
            raw_value = "0"
        if key not in types:
            message = "unknown key {!r}".format(key)
            if strict:
                raise ConfigError(message, lineno)
            print("warning: {} (line {})".format(message, lineno), file=sys.stderr)
            continue
        setattr(config, key, _coerce(key, types[key], raw_value, lineno))
    config.validate()
    return config


def _build_hierarchy(config, n_levels):
    if config.mesh_file:
        coarse = load_mesh(config.mesh_file)
    else:
        # an oversized run fails before the grid is allocated
        check_vertex_cap(unit_square_counts(config.mesh_h), n_levels, config.max_vertices)
        coarse = unit_square_mesh(config.mesh_h)
    return build_hierarchy(coarse, n_levels, max_vertices=config.max_vertices)


def _fmt(value):
    """Shortest float representation that round-trips (keeps the CSV diffable)."""
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _csv_header(m, compare):
    cols = ["level", "h", "n_free", "time_assemble_s", "time_solve_s"]
    for i in range(1, m + 1):
        cols += ["lambda_{}".format(i), "err_lambda_{}".format(i),
                 "err_energy_{}".format(i)]
    if compare:
        for i in range(1, m + 1):
            cols += ["lambda_dir_{}".format(i), "diff_dir_{}".format(i)]
    return ",".join(cols)


def _write_csv(path, levels, m, record=None, comparison=None, aborted=None):
    """Write one row per level; without an evaluated `record` (an aborted run)
    the error cells read nan and the energy cells stay empty.  `aborted` names
    what failed in the ``# ABORTED`` trailer."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(_csv_header(m, comparison is not None) + "\n")
        for k, rec in enumerate(levels):
            errors = record.eigenvalue_errors[k] if record else np.full(m, np.nan)
            energies = record.energy_errors[k] if record else [None] * m
            cells = [rec.level, rec.h, rec.n_free, rec.wall_time_assemble,
                     rec.wall_time_solve]
            for i in range(m):
                cells += [rec.eigenvalues[i], errors[i], energies[i]]
            if comparison is not None:
                for i in range(m):
                    cells += [comparison.direct_values[k][i], comparison.value_diffs[k][i]]
            f.write(",".join(_fmt(c) for c in cells) + "\n")
        if aborted is not None:
            f.write("# ABORTED {}\n".format(aborted))


def _write_summary(path, config, record, comparison=None):
    lines = []
    lines.append("multilevel Newton eigenvalue run")
    lines.append("problem={} levels={} m={} mesh={}".format(
        config.problem, config.levels, config.eigen_count,
        config.mesh_file or "structured h={}".format(_fmt(config.mesh_h))))
    lines.append("")
    lines.append("{:>5} {:>12} {:>8} {}".format("level", "h", "n_free", "eigenvalues"))
    for rec in record.levels:
        lines.append("{:>5} {:>12.6g} {:>8} {}".format(
            rec.level, rec.h, rec.n_free,
            " ".join("{:.12g}".format(v) for v in rec.eigenvalues)))
    lines.append("")
    lines.append("level, per eigenpair: MINRES iterations ; verified relative residuals "
                 "(gate solver_tol = {})".format(_fmt(config.solver_tol)))
    for rec in record.levels[1:]:
        lines.append("{:>5} {} ; {}".format(
            rec.level, " ".join(str(c) for c in rec.pairs.iterations),
            " ".join("{:.2e}".format(r) for r in rec.pairs.residuals)))
    lines.append("")
    lines.append("reference values: " + " ".join(
        "{:.12g}".format(v) for v in record.reference_values))
    lines.append("observed eigenvalue orders (log err vs log h, last 3 levels): "
                 + " ".join("{:.3f}".format(o) for o in record.observed_orders))
    energy = ["{:.3f}".format(o) if np.isfinite(o) else "-"
              for o in record.energy_orders]
    lines.append("observed energy-error orders: " + " ".join(energy))
    if comparison is not None:
        lines.append("")
        lines.append("per-level max |lambda_ml - lambda_dir|: " + " ".join(
            "{:.3e}".format(d.max()) for d in comparison.value_diffs))
    lines.append("")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines))


def cmd_solve(config):
    """Run the study; returns (exit_code, record or None); a failed evaluation re-raises.

    The direct solves of the evaluation need only the assembled pencils, so
    they run on one worker thread while this thread runs the Newton steps.
    A failed level wins over them: their queued solves are cancelled, the
    running one is joined and its result or error is dropped.
    """
    hierarchy = _build_hierarchy(config, config.levels)
    coeffs = config.coefficients()
    m = config.eigen_count
    options = config.solve_options()
    csv_path = config.output + "_levels.csv"
    assembled = assemble_levels(hierarchy, coeffs, options)
    forms = assembled[0]
    check_eigen_count(forms[0], m)
    pool = ThreadPoolExecutor(max_workers=1)
    try:
        # through the module, so a replaced `reference.direct_solve` is the one submitted
        solves = {k: pool.submit(reference.direct_solve, forms[k], m, tol=config.direct_tol)
                  for k in reference_levels(coeffs.preset, len(forms), config.compare_direct)}
        try:
            levels = run_multilevel(hierarchy, coeffs, m, options, assembled)
        except MultilevelError as exc:
            _write_csv(csv_path, exc.records, m, aborted="level={}".format(exc.level))
            print("error: {}".format(exc), file=sys.stderr)
            return EXIT_SOLVER, None
        try:
            record = evaluate(hierarchy, coeffs, levels, direct_tol=config.direct_tol,
                              direct_solves={k: f.result() for k, f in solves.items()})
            comparison = None
            if config.compare_direct:
                comparison = compare_with_direct(record)
        except SolverError:
            _write_csv(csv_path, levels, m, aborted="evaluation")
            raise
    finally:
        pool.shutdown(cancel_futures=True)
    _write_csv(csv_path, levels, m, record, comparison)
    _write_summary(config.output + "_summary.txt", config, record, comparison)
    return EXIT_OK, record


def local_exponent(levels, seconds=None):
    """Slope of log(total seconds) against log(N) between the two deepest
    depths of a `bench` sweep, from the `levels` of its deepest run; nan with
    fewer than two depths.  The total of depth n sums the `seconds` of levels
    0..n-1, by default their assembly and solve seconds."""
    if len(levels) < 3:
        return float("nan")
    if seconds is None:
        seconds = [rec.wall_time_assemble + rec.wall_time_solve for rec in levels]
    totals = np.cumsum(seconds)
    return float(np.log(totals[-1] / totals[-2])
                 / np.log(levels[-1].n_free / levels[-2].n_free))


def run_bench(config, hierarchy=None):
    """One `run_multilevel` over the `bench_max_levels` hierarchy (built here
    unless given): its `LevelRecord`s time every depth 2..bench_max_levels of
    the sweep.  No errors are evaluated."""
    if hierarchy is None:
        hierarchy = _build_hierarchy(config, config.bench_max_levels)
    return run_multilevel(hierarchy, config.coefficients(), config.eigen_count,
                          config.solve_options())


def _exponent_line(exponent, what):
    return ("{} skipped (needs >= 2 depths)".format(what) if np.isnan(exponent) else
            "{} over the last two doublings of N: N^{:.3f}".format(what, exponent))


def cmd_bench(config):
    """Run the benchmark sweep and write ``<output>_work.txt``; returns
    (exit_code, the deepest run's records)."""
    hierarchy = _build_hierarchy(config, config.bench_max_levels)
    levels = run_bench(config, hierarchy)
    totals = np.cumsum([rec.wall_time_assemble + rec.wall_time_solve for rec in levels])
    lines = ["benchmark sweep (depth, finest N, total seconds)"]
    for n in range(2, len(levels) + 1):
        lines.append("{:>3} {:>10} {:>12.4f}".format(n, levels[n - 1].n_free, totals[n - 1]))
    lines += ["", "deepest run per level (N_k, assemble s, solve s, MINRES iterations "
              "at gate solver_tol = {})".format(_fmt(config.solver_tol))]
    for rec in levels:
        counts = rec.pairs.iterations
        lines.append("{:>10} {:>12.4f} {:>12.4f}  {}".format(
            rec.n_free, rec.wall_time_assemble, rec.wall_time_solve,
            "-" if counts is None else " ".join(str(c) for c in counts)))
    lines += ["", _exponent_line(local_exponent(levels), "local exponent"), "",
              "hierarchy per level (N_k, refine-and-validate s)"]
    build = [0.0] + hierarchy.refine_seconds
    for k, rec in enumerate(levels):
        lines.append("{:>10} {:>12}".format(rec.n_free, "{:.4f}".format(build[k]) if k else "-"))
    lines += ["", _exponent_line(local_exponent(levels, build), "hierarchy local exponent"), ""]
    with open(config.output + "_work.txt", "w", encoding="utf-8") as f:
        f.write("\n".join(lines))
    return EXIT_OK, levels


def cmd_meshinfo(path):
    mesh = load_mesh(path)
    print("vertices:        {}".format(mesh.num_vertices))
    print("triangles:       {}".format(mesh.num_triangles))
    print("boundary nodes:  {}".format(int(mesh.boundary.sum())))
    print("interior nodes:  {}".format(int((~mesh.boundary).sum())))
    print("max diameter:    {:.12g}".format(mesh.max_diameter()))
    print("total area:      {:.12g}".format(mesh.area()))
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="newteig",
        description="Multilevel Newton iteration for FEM eigenvalue problems.")
    parser.add_argument("--strict", action="store_true",
                        help="reject unknown config keys instead of warning")
    sub = parser.add_subparsers(dest="command", required=True)
    p_solve = sub.add_parser("solve", help="run a convergence study")
    p_solve.add_argument("config")
    p_bench = sub.add_parser("bench", help="run the scaling benchmark sweep")
    p_bench.add_argument("config")
    p_info = sub.add_parser("meshinfo", help="print statistics of a mesh file")
    p_info.add_argument("meshfile")
    args = parser.parse_args(argv)

    try:
        if args.command == "meshinfo":
            return cmd_meshinfo(args.meshfile)
        config = parse_config(args.config, strict=args.strict)
        if args.command == "bench":
            code, _ = cmd_bench(config)
        else:
            code, _ = cmd_solve(config)
        return code
    except ConfigError as exc:
        print("config error: {}".format(exc), file=sys.stderr)
        return EXIT_CONFIG
    except (MeshError, ValueError) as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return EXIT_CONFIG
    except (MultilevelError, SolverError) as exc:
        print("solver error: {}".format(exc), file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print("i/o error: {}".format(exc), file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
