"""Output gates: check a run directory against the paper's properties.

The checks read the CSV and JSON artifacts with the standard library
only. Each gated figure is recomputed from the CSV columns and the
workload spec, and a figure that lamlab also reports in ``summary.json``
must agree with it, so a writer that garbles a column fails the gate.
Only the model constants the paper's bounds need (``delta0``, ``C1``,
``c``, the contraction ``k``) are taken from ``manifest.json``.
``check(name, run_dir, work, tol)`` returns a list of problems; an empty
list means the run directory passed.
"""

import csv
import hashlib
import itertools
import json
import math
from pathlib import Path

ORDER_TOL = 1e-9
INVARIANCE_TOL = 1e-8
MAX_SWEEPS = 200
MARGIN_FLOOR = -0.05
MASS_SLACK = 8.0
AGREE_TOL = 1e-9    # a CSV-derived figure against lamlab's own


def digest(run_dir):
    """SHA-256 over the sorted file names and their bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(run_dir).iterdir() if p.is_file()):
        data = path.read_bytes()
        h.update(f"{path.name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def _json(run_dir, name):
    return json.loads((Path(run_dir) / name).read_text())


def _rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def _lamination(run_dir, work, tol, problems):
    spec = work["spec"]
    R, n = spec["window_radius"], spec["n_samples"]
    delta0 = _json(run_dir, "manifest.json")["constants"]["delta0"]
    summary = _json(run_dir, "summary.json")
    s_values = summary["s_values"]
    if summary["members"] != n or len(s_values) != n:
        problems.append(f"summary lists {summary['members']} members, spec asks {n}")
        return
    members = []
    for j in range(n):
        header, rows = _rows(Path(run_dir) / f"member_{j:03d}.csv")
        if header != ["i", "x0", "x", "residual"]:
            problems.append(f"member {j}: header {header}")
            return
        if len(rows) != 2 * R + 3:
            problems.append(f"member {j}: {len(rows)} rows, expected {2 * R + 3}")
            return
        x = [float(r[2]) for r in rows]
        resid = max((abs(float(r[3])) for r in rows if r[3]), default=math.inf)
        if not resid <= tol:
            problems.append(f"member {j}: max |residual| {resid!r} above tol {tol!r}")
        drift = max(abs(xi - float(r[1])) for xi, r in zip(x, rows))
        if not drift < delta0:
            problems.append(f"member {j}: |x - x0| reaches {drift!r} >= delta0 {delta0!r}")
        members.append(x)
    order = sorted(range(n), key=lambda j: s_values[j])
    for a, b in zip(order, order[1:]):
        worst = min(xb - xa for xa, xb in zip(members[a], members[b]))
        if worst < -ORDER_TOL:
            problems.append(f"members {a} and {b} cross: min difference {worst!r}")
    _, matrix = _rows(Path(run_dir) / "ordering_matrix.csv")
    if len(matrix) != n or any("x" in row for row in matrix):
        problems.append("ordering_matrix.csv records a crossing")


def _cantorus(run_dir, work, tol, problems):
    n = work["spec"]["n_samples"]
    _, _, (omega,) = work["setup"]    # the spec's omega, not lamlab's reading
    header, rows = _rows(Path(run_dir) / "cantorus.csv")
    if header != ["s", "x0", "y0"] or len(rows) != n:
        problems.append(f"cantorus.csv has header {header} and {len(rows)} rows, "
                        f"expected s,x0,y0 and {n}")
        return
    s = [float(r[0]) for r in rows]
    x = [float(r[1]) for r in rows]
    y = [float(r[2]) for r in rows]
    if not all(0.0 <= xi < 1.0 for xi in x):
        problems.append("cantorus x0 outside [0, 1)")
    steps = [b - a for a, b in zip(s, s[1:])]
    if not all(abs(step - omega) <= AGREE_TOL for step in steps):
        problems.append("cantorus parameters s are not spaced by omega")
    # T(x, y) = (x + y', y'): each x0 is the last one plus the new y0, mod 1
    miss = max((abs(d - round(d)) for d in
                (x1 - x0 - y1 for x0, x1, y1 in zip(x, x[1:], y[1:]))), default=0.0)
    if not miss <= INVARIANCE_TOL:
        problems.append(f"consecutive points miss one map step by {miss!r}")
    summary = _json(run_dir, "summary.json")
    if not summary["invariance_error"] <= INVARIANCE_TOL:
        problems.append(f"invariance_error {summary['invariance_error']!r}")
    mean = math.fsum(y) / n
    if not abs(mean - omega) <= 2.0 / n:
        problems.append(f"mean momentum {mean!r} is {abs(mean - omega)!r} from omega")
    if not abs(mean - summary["mean_momentum"]) <= AGREE_TOL:
        problems.append(f"summary mean_momentum {summary['mean_momentum']!r}, "
                        f"cantorus.csv gives {mean!r}")


def _sweep(run_dir, work, tol, problems):
    cst = _json(run_dir, "manifest.json")["constants"]
    _, rows = _rows(Path(run_dir) / "sweep.csv")
    if len(rows) != work["calls"]:
        problems.append(f"sweep.csv has {len(rows)} rows, expected {work['calls']}")
        return
    table = sorted((float(r[0]), int(r[1]), float(r[2]), float(r[4])) for r in rows)
    scale = cst["C1"] / ((1.0 - cst["contraction_k"]) * cst["c"])
    for eps, iters, resid, disp in table:
        if not resid <= tol:
            problems.append(f"eps {eps!r}: residual {resid!r} above tol")
        if iters > MAX_SWEEPS:
            problems.append(f"eps {eps!r}: {iters} sweeps")
        if not disp <= eps * scale:
            problems.append(f"eps {eps!r}: displacement {disp!r} above eps*C1/((1-k)c)")
    for lo, hi in zip(table, table[1:]):
        if not hi[3] > lo[3]:
            problems.append(f"displacement not increasing between eps {lo[0]!r} and {hi[0]!r}")


def _simplex_grid(n_wells, spacing):
    """Weights on the simplex with the given spacing, in lamlab's order."""
    steps = int(round(1.0 / spacing))
    grid = []
    for combo in itertools.product(range(steps + 1), repeat=n_wells - 1):
        weights = [c * spacing for c in combo]
        tail = 1.0 - sum(weights)
        if tail >= -1e-12:
            grid.append(weights + [max(tail, 0.0)])
    return grid


def _measure(run_dir, work, tol, problems):
    spec = work["spec"]
    atoms = _json(run_dir, "measure.json")["atoms"]
    masses = [m for _, m in atoms]
    slack = MASS_SLACK / spec["n"]
    if len(masses) != len(spec["p"]) or any(
            not abs(m - q) <= slack for m, q in zip(masses, spec["p"])):
        problems.append(f"masses {masses} not within {slack:.4f} of p {spec['p']}")
    inj = _json(run_dir, "summary.json")["injectivity"]
    grid = _simplex_grid(len(spec["p"]), spec["injectivity"]["spacing"])
    G = len(grid)
    if G != work["grid"] or len(inj["grid"]) != G or any(
            abs(a - b) > AGREE_TOL
            for q, r in zip(grid, inj["grid"]) for a, b in zip(q, r)):
        problems.append(f"injectivity grid of {len(inj['grid'])} points is not "
                        f"the {work['grid']}-point simplex grid")
        return
    header, rows = _rows(Path(run_dir) / "injectivity.csv")
    if header != ["a", "b", "l1", "vague_distance"] or len(rows) != G * (G - 1) // 2:
        problems.append(f"injectivity.csv has header {header} and {len(rows)} "
                        f"pairs, expected {G * (G - 1) // 2}")
        return
    margin = math.inf
    pairs = itertools.combinations(range(G), 2)
    for row, (a, b) in zip(rows, pairs):
        l1, dist = float(row[2]), float(row[3])
        l1_grid = sum(abs(u - v) for u, v in zip(grid[a], grid[b]))
        if (int(row[0]), int(row[1])) != (a, b) or abs(l1 - l1_grid) > AGREE_TOL:
            problems.append(f"injectivity.csv row {row} is not pair ({a}, {b}) "
                            f"at l1 distance {l1_grid!r}")
            return
        if not dist >= 0.0:
            problems.append(f"pair ({a}, {b}): vague distance {dist!r}")
            return
        margin = min(margin, dist - l1)
    if not margin >= MARGIN_FLOOR:
        problems.append(f"injectivity margin {margin!r} below {MARGIN_FLOOR}")
    if not abs(margin - inj["min_margin"]) <= AGREE_TOL:
        problems.append(f"summary min_margin {inj['min_margin']!r}, "
                        f"injectivity.csv gives {margin!r}")


_CHECKS = {
    "lamination-1d": _lamination,
    "cantorus-1d": _cantorus,
    "sweep-2d": _sweep,
    "measure-injectivity": _measure,
}


def check(name, run_dir, work, tol):
    """Problems found in ``run_dir`` for workload ``name``; [] if it passes."""
    problems = []
    for required in ("manifest.json", "summary.json"):
        # the CLI writes the summary last, so its absence marks a cut run
        if not (Path(run_dir) / required).is_file():
            problems.append(f"missing {required}")
    try:
        _CHECKS[name](run_dir, work, tol, problems)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"unreadable run directory: {type(exc).__name__}: {exc}")
    return problems
