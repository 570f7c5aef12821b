"""Span tracing of newteig's public functions, installed from outside the package.

`install` replaces each traced function, in every ``newteig`` module that
holds it, with a wrapper that records a span: name, parent span, start and
end on the system-wide monotonic clock, whether it raised, and a few sizes
read from the arguments.  Spans stay in memory and are written out once,
when the traced process ends.  `layer_metrics` turns them into the
per-layer figures.
"""

import functools
import math
import statistics
import sys
import threading
import time

# (module, attribute or Class.method, span name)
TRACED = [
    ("cli", "main", "cli.main"),
    ("cli", "parse_config", "cli.parse_config"),
    ("mesh", "load_mesh", "mesh.load_mesh"),
    ("mesh", "build_hierarchy", "mesh.build_hierarchy"),
    ("mesh", "Mesh.edges", "mesh.edges"),
    ("mesh", "Mesh.max_diameter", "mesh.max_diameter"),
    ("assemble", "assemble_forms", "assemble.assemble_forms"),
    ("assemble", "free_prolongation", "assemble.free_prolongation"),
    ("assemble", "energy_error_vs_exact", "assemble.energy_error"),
    ("eigen_newton", "coarse_solve", "eigen_newton.coarse_solve"),
    ("eigen_newton", "newton_step_single", "eigen_newton.newton_step"),
    ("eigen_newton", "newton_step_multi", "eigen_newton.newton_step"),
    ("linalg", "solve_bordered", "linalg.solve_bordered"),
    ("linalg", "dense_gen_eig", "linalg.dense_gen_eig"),
    ("reference", "direct_solve", "reference.direct_solve"),
    ("multilevel", "run_multilevel", "multilevel.run_multilevel"),
]


def _step_info(args, kwargs):
    forms = kwargs.get("forms_fine", args[0] if args else None)
    return {"n": int(forms.n_free)}


def _bordered_info(args, kwargs):
    matrix = kwargs.get("matrix", args[0] if args else None)
    return {"n": int(matrix.n), "m": int(matrix.m), "core_nnz": int(matrix.core.nnz)}


INFO = {
    "eigen_newton.newton_step": _step_info,
    "linalg.solve_bordered": _bordered_info,
}


class Tracer:
    """Records spans from any thread; a worker thread's first span is parented
    to the innermost span open on the main thread (the code that fanned out)."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._stacks = {}

    def _stack(self):
        return self._stacks.setdefault(threading.get_ident(), [])

    def begin(self, name, info=None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(threading.main_thread().ident) or [None]
            parent = main[-1]
        span = {"name": name, "parent": parent, "start": time.monotonic(),
                "end": None, "failed": False, "info": info or {}}
        with self._lock:
            span["id"] = len(self.spans)
            self.spans.append(span)
        stack.append(span["id"])
        return span

    def end(self, span, failed=False):
        span["end"] = time.monotonic()
        span["failed"] = failed
        self._stack().pop()

    def record(self, name, start, end):
        """Add a finished top-level span measured elsewhere."""
        with self._lock:
            self.spans.append({"name": name, "parent": None, "start": start, "end": end,
                               "failed": False, "info": {}, "id": len(self.spans)})

    def wrap(self, name, fn):
        info_of = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name, info_of(args, kwargs) if info_of else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(span, failed=True)
                raise
            self.end(span)
            return result

        return traced


def install(tracer):
    """Wrap every function in TRACED that exists, plus the callables that
    ``parse_expression`` hands to ``cli``.  Returns the names not found, so a
    renamed function shows up as missing instead of silently reading zero."""
    import newteig.cli  # noqa: F401  (loads every newteig module)

    modules = {name: mod for name, mod in sys.modules.items()
               if name == "newteig" or name.startswith("newteig.")}
    missing = []
    for module, attr, span_name in TRACED:
        owner = modules.get("newteig." + module)
        path = attr.split(".")
        for part in path[:-1]:
            owner = getattr(owner, part, None)
        original = getattr(owner, path[-1], None)
        if original is None:
            missing.append("{}.{}".format(module, attr))
            continue
        wrapped = tracer.wrap(span_name, original)
        if len(path) > 1:
            setattr(owner, path[-1], wrapped)
            continue
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    cli = modules["newteig.cli"]
    parse_expression = getattr(cli, "parse_expression", None)
    if parse_expression is None:
        missing.append("cli.parse_expression")
    else:
        cli.parse_expression = lambda text: tracer.wrap(
            "expressions.eval", parse_expression(text))
    return missing


# ---------------------------------------------------------------- analysis


def _union_length(intervals):
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _duration(span):
    return span["end"] - span["start"]


def layer_metrics(spans, child_wall_s):
    """Per-layer figures of one traced run.

    ``*_s`` are summed inclusive span times (busy time: threaded spans that
    overlap each count in full), ``*_calls`` span counts, and a layer's
    ``self_s`` is its spans' time minus the part covered by their child spans.
    """
    spans = [s for s in spans if s["end"] is not None]
    by_name, children = {}, {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        children.setdefault(s["parent"], []).append(s)

    def calls(name):
        return len(by_name.get(name, []))

    def busy(name):
        return sum(_duration(s) for s in by_name.get(name, []))

    def self_time(name):
        return sum(_duration(s) - _union_length([(c["start"], c["end"])
                                                 for c in children.get(s["id"], [])])
                   for s in by_name.get(name, []))

    steps = sorted(by_name.get("eigen_newton.newton_step", []), key=lambda s: s["info"]["n"])
    if len(steps) >= 2:
        fine, prev = steps[-1], steps[-2]
        exponent = (math.log(_duration(fine) / _duration(prev))
                    / math.log(fine["info"]["n"] / prev["info"]["n"]))
    else:
        exponent = 0.0

    bordered = by_name.get("linalg.solve_bordered", [])
    n_finest = max((s["info"]["n"] for s in bordered), default=0)
    finest = [s for s in bordered if s["info"]["n"] == n_finest]
    if finest:
        info = finest[0]["info"]
        nnz_finest = info["core_nnz"] + 2 * info["n"] * info["m"]
        bordered_finest_s = statistics.median(_duration(s) for s in finest)
    else:
        nnz_finest, bordered_finest_s = 0, 0.0

    top = [(s["start"], s["end"]) for s in spans if s["parent"] is None]
    return {
        "startup.import_s": busy("startup.import"),
        "cli.parse_config_s": busy("cli.parse_config"),
        "cli.self_s": self_time("cli.main") + self_time("cli.parse_config"),
        "mesh.load_mesh_s": busy("mesh.load_mesh"),
        "mesh.build_hierarchy_s": busy("mesh.build_hierarchy"),
        "mesh.edges_calls": calls("mesh.edges"),
        "mesh.edges_s": busy("mesh.edges"),
        "mesh.max_diameter_calls": calls("mesh.max_diameter"),
        "mesh.max_diameter_s": busy("mesh.max_diameter"),
        "assemble.assemble_forms_calls": calls("assemble.assemble_forms"),
        "assemble.assemble_forms_s": busy("assemble.assemble_forms"),
        "assemble.free_prolongation_s": busy("assemble.free_prolongation"),
        "assemble.energy_error_s": busy("assemble.energy_error"),
        "expressions.eval_calls": calls("expressions.eval"),
        "expressions.eval_s": busy("expressions.eval"),
        "linalg.solve_bordered_calls": calls("linalg.solve_bordered"),
        "linalg.solve_bordered_busy_s": busy("linalg.solve_bordered"),
        "linalg.solve_bordered_finest_s": bordered_finest_s,
        "linalg.solve_bordered_failed": sum(s["failed"] for s in bordered),
        "linalg.bordered_nnz_finest": nnz_finest,
        "linalg.dense_gen_eig_calls": calls("linalg.dense_gen_eig"),
        "linalg.dense_gen_eig_s": busy("linalg.dense_gen_eig"),
        "eigen_newton.coarse_solve_s": busy("eigen_newton.coarse_solve"),
        "eigen_newton.newton_step_s": busy("eigen_newton.newton_step"),
        "eigen_newton.newton_step_finest_s": _duration(steps[-1]) if steps else 0.0,
        "eigen_newton.self_s": self_time("eigen_newton.newton_step"),
        "eigen_newton.local_exponent": exponent,
        "reference.direct_solve_calls": calls("reference.direct_solve"),
        "reference.direct_solve_s": busy("reference.direct_solve"),
        "multilevel.run_multilevel_s": busy("multilevel.run_multilevel"),
        "multilevel.self_s": self_time("multilevel.run_multilevel"),
        "trace.unattributed_share": 1.0 - _union_length(top) / child_wall_s,
    }
