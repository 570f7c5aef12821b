"""Output checks of one ``newteig solve`` run; any problem fails the run."""

import math

TIMING_COLUMNS = ("time_assemble_s", "time_solve_s")
REFERENCE_RTOL = 1e-9


def parse_csv(text):
    """Split a levels CSV into (header, rows of cells, comment lines)."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return [], [], []
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    comments = [line for line in lines[1:] if line.startswith("#")]
    return header, rows, comments


def _without_timings(text):
    header, rows, comments = parse_csv(text)
    keep = [i for i, name in enumerate(header) if name not in TIMING_COLUMNS]
    return [[row[i] for i in keep if i < len(row)] for row in [header] + rows] + comments


def check_run(exit_code, csv_text, summary_text, expected_n_free, m,
              reference_values, first_csv_text=None):
    """Return the list of problems with one run's outputs (empty when it passes).

    `reference_values` are the finest-level eigenvalues from
    ``reference.direct_solve`` on the same pencil (None when that solve
    failed); `first_csv_text` is the CSV of the first run on the same
    inputs, which this one must repeat apart from the timing columns.
    """
    problems = []
    if exit_code != 0:
        problems.append("exit code {}".format(exit_code))
    if csv_text is None:
        return problems + ["no CSV written"]
    if not summary_text:
        problems.append("no summary written")
    header, rows, comments = parse_csv(csv_text)
    if any(line.startswith("# ABORTED") for line in comments):
        problems.append("CSV has an ABORTED trailer")
    lambda_cols = [header.index("lambda_{}".format(i + 1)) for i in range(m)
                   if "lambda_{}".format(i + 1) in header]
    if "n_free" not in header or len(lambda_cols) != m:
        return problems + ["CSV header lacks n_free or lambda_1..lambda_{}".format(m)]
    try:
        n_free = [int(row[header.index("n_free")]) for row in rows]
        values = [[float(row[c]) for c in lambda_cols] for row in rows]
    except (ValueError, IndexError) as exc:
        return problems + ["malformed CSV row: {}".format(exc)]
    if n_free != list(expected_n_free):
        problems.append("levels/n_free {} differ from the expected {}".format(
            n_free, list(expected_n_free)))
    for level, row in enumerate(values):
        if not all(math.isfinite(v) for v in row):
            problems.append("non-finite eigenvalue on level {}".format(level))
        elif any(b < a for a, b in zip(row, row[1:])):
            problems.append("eigenvalues not ascending on level {}".format(level))
    if first_csv_text is not None and _without_timings(csv_text) != _without_timings(
            first_csv_text):
        problems.append("CSV differs from the first run apart from the timing columns")
    if reference_values is None:
        problems.append("no direct-solve reference to compare with")
    elif values:
        gap = max(abs(v - r) / abs(r) for v, r in zip(values[-1], reference_values))
        if not gap <= REFERENCE_RTOL:
            problems.append("finest eigenvalues differ from the direct solve by "
                            "{:.3e} relative (limit {:.0e})".format(gap, REFERENCE_RTOL))
    return problems
