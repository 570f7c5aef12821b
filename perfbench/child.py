"""Runs ``newteig solve <config>`` inside one benchmark child process.

Usage: child.py MODE CONFIG MARKS_JSON

MODE is one of

``solve``      the plain CLI run; only the end of set-up is time-stamped.
``setup``      stops (without teardown) as soon as the mesh hierarchy is built.
``trace``      the CLI run with every public newteig function traced (spans.py).
``reference``  the ``setup`` run, which then assembles the finest pencil of the
               hierarchy just built and solves it with ``reference.direct_solve``;
               also records the library versions.

Whatever the mode, MARKS_JSON receives the time stamps (system-wide monotonic
clock, so the parent can subtract its spawn time) and mode-specific data.
The exit code is the CLI's.
"""

import time

START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def _dump(path, data):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f)


def _versions():
    import numpy
    import scipy

    def blas(show_config):
        try:
            info = show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (KeyError, TypeError):
            return "unknown"
        return "{} {}".format(info.get("name", "?"), info.get("version", "?"))

    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(numpy.show_config), "scipy_blas": blas(scipy.show_config)}


def _reference(hierarchy, config_path):
    from newteig import assemble_forms, direct_solve
    from newteig.cli import parse_config

    config = parse_config(config_path)
    coeffs = config.coefficients()
    forms = assemble_forms(hierarchy.levels[-1], coeffs,
                           config.solve_options().effective_quad_order(coeffs))
    values = direct_solve(forms, config.eigen_count, tol=config.direct_tol).values
    return {"n_free": int(forms.n_free), "values": [float(v) for v in values],
            "versions": _versions()}


def main(mode, config_path, marks_path):
    import newteig.cli as cli

    marks = {"start": START, "imported": time.monotonic()}
    tracer = None
    if mode == "trace":
        import spans
        tracer = spans.Tracer()
        tracer.record("startup.import", START, marks["imported"])
        marks["missing"] = spans.install(tracer)

    build_hierarchy = cli.build_hierarchy

    def timed_build(*args, **kwargs):
        hierarchy = build_hierarchy(*args, **kwargs)
        marks["setup_done"] = time.monotonic()
        if mode in ("setup", "reference"):
            if mode == "reference":
                marks.update(_reference(hierarchy, config_path))
            _dump(marks_path, marks)
            sys.stdout.flush()
            os._exit(0)
        return hierarchy

    cli.build_hierarchy = timed_build
    code = cli.main(["solve", config_path])
    marks["finished"] = time.monotonic()
    if tracer is not None:
        marks["spans"] = tracer.spans
    _dump(marks_path, marks)
    return code


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
