"""Command-line driver.

Runs experiments described by a JSON spec file and writes deterministic
CSV/JSON artifacts into a run directory: the manifest first (echoing every
effective parameter, including the derived constants), data files next,
the summary last, so an interrupted run is detectable by its missing
summary. Identical spec plus seed yields byte-identical outputs.

Exit codes: 0 success, 1 schema or I/O problem, 2 refused or escaped or
order-broken runs, 3 failure to converge.
"""

import argparse
import json
import math
import os
import sys
from itertools import islice
from pathlib import Path

import numpy as np

from .continuation import (SCAN_MARGIN, continue_lamination,
                           quasi_newton_continue, residual_field,
                           scan_birkhoff, truncation_consistency)
from .errors import (CheckInconclusive, ContinuationRefused,
                     ContractionEscape, LaminationBroken, LamlabError,
                     NoConvergence, NotBirkhoff, SchemaError,
                     UnclassifiableSite)
from .hull import (GOLDEN_MEAN, check_irrational, generic_parameter,
                   sample_config, step_hull_from_simplex)
from .lattice import Box
from .measure import (DEFAULT_DENSITY_RADIUS, default_density_radius,
                      injectivity_pairs, psi_epsilon_grid)
from .model import (build_model, builtin_harmonic_stencil, builtin_n_well,
                    potential_from_table)
from .twistmap import chaotic_momentum_orbit, extract_cantorus
from .verification import CHECKS, run_suite

EXIT_OK = 0
EXIT_SCHEMA = 1
EXIT_REFUSED = 2
EXIT_NO_CONVERGENCE = 3
# errors that exit 2; NoConvergence exits 3 and every other error 1
_REFUSALS = (ContinuationRefused, ContractionEscape, LaminationBroken,
             NotBirkhoff, CheckInconclusive, UnclassifiableSite)

# the most sites a padded window may have, and the most sites or rows a
# run may hold over all its members, refused before anything is
# allocated or written; far above every run the tests and the benchmark
# make
MAX_WINDOW_SITES = 2**26
# the largest stencil dimension d whose smallest window fits: the harmonic
# stencil has range 1, so the smallest window radius is 2 and its padded
# box has 7**d sites
MAX_DIMENSION = max(d for d in range(1, 64) if 7**d <= MAX_WINDOW_SITES)

# rows per write of a CSV file, and pairs per block of the injectivity
# table: the text of one block is all a writer holds at a time
_BLOCK = 4096

OMEGA_NAMES = {
    "golden": GOLDEN_MEAN,
    "sqrt2-1": float(np.sqrt(2.0) - 1.0),
    "sqrt3-1": float(np.sqrt(3.0) - 1.0),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage, which collides with the
    exit-code contract; surface usage problems as schema errors instead."""

    def error(self, message):
        raise SchemaError(message)


class _Spec(dict):
    """An object of a spec file, recording each key a command reads
    through ``[]``, ``get`` or ``in``. The keys a command takes are the
    keys it reads: ``refuse_unread`` refuses the others, here and in
    each nested object opened with ``object``, parents first."""

    def __init__(self, body, command, what=None):
        super().__init__(body)
        self.command = command
        self.what = what or f"{command} spec"
        self._read, self._children = set(), []

    def __getitem__(self, key):
        if key not in self:
            raise SchemaError(f"missing {self.what} key {key!r}")
        return super().__getitem__(key)

    def get(self, key, default=None):
        return self[key] if key in self else default

    def __contains__(self, key):
        self._read.add(key)
        return super().__contains__(key)

    def object(self, key, what, default=None):
        """The object at ``key`` as a child spec named ``what``; an absent
        key is ``default``, or is refused if there is no default."""
        body = self[key] if default is None else self.get(key, default)
        if not isinstance(body, dict):
            raise SchemaError(f"{what} must be an object")
        child = _Spec(body, self.command, what)
        self._children.append(child)
        return child

    def refuse_unread(self):
        unread = set(self) - self._read
        if unread:
            raise SchemaError(f"unknown {self.what} keys: {sorted(unread)}")
        for child in self._children:
            child.refuse_unread()


def _load_spec(path, command):
    """The spec file at ``path``; ``verify`` runs on an empty one."""
    if path is None and command == "verify":
        return _Spec({}, command)
    if path is None:
        raise SchemaError("this command needs --spec <file>")
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise SchemaError(f"cannot read spec file: {exc}")
    try:
        spec = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"spec file is not valid JSON: {exc}")
    if not isinstance(spec, dict):
        raise SchemaError("spec must be a JSON object")
    return _Spec(spec, command)


def _finite(v, what):
    """``v`` as a float; anything but a finite JSON number is refused,
    an integer past the float range included."""
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        try:
            v = float(v)
        except OverflowError:
            v = math.inf
        if math.isfinite(v):
            return v
    raise SchemaError(f"{what} must be a finite number")


def _integer(v, what, least=None):
    """``v`` as an int of at least ``least``; booleans are refused."""
    if isinstance(v, int) and not isinstance(v, bool) \
            and (least is None or v >= least):
        return v
    bound = "" if least is None else f" of at least {least}"
    raise SchemaError(f"{what} must be an integer{bound}")


def _model_parts(spec):
    """Potential, stencil, oscillation bound K and contraction parameter k
    of ``spec.model``. K is None unless the model gives one; the caller
    sizes it for its omega or its labels."""
    mspec = spec.object("model", "model")
    pspec = mspec.object("potential", "model.potential",
                         {"kind": "n_well", "N": 2})
    kind = pspec["kind"]
    if kind == "n_well":
        wells = _integer(pspec.get("N", 2), "n_well N", 1)
        _within_cap(2 * wells, f"n_well N {wells}", "critical points")
        potential = builtin_n_well(wells)
    elif kind == "table":
        samples = pspec.get("samples")
        if not isinstance(samples, list) or len(samples) < 8:
            raise SchemaError("table potential needs at least 8 samples")
        samples = [_finite(v, "every table sample") for v in samples]
        potential = potential_from_table(np.asarray(samples))
    else:
        raise SchemaError(f"unknown potential kind {kind!r}")

    sspec = mspec.object("stencil", "model.stencil",
                         {"kind": "harmonic", "d": 1})
    if sspec["kind"] != "harmonic":
        raise SchemaError("model.stencil must be harmonic (with a dimension d)")
    d = _integer(sspec.get("d", 1), "stencil dimension d", 1)
    if d > MAX_DIMENSION:
        # 7**d is never computed: d may have hundreds of digits
        raise SchemaError(f"stencil dimension d {d} needs 7**{d} sites in its "
                          f"smallest window; at most {MAX_WINDOW_SITES} are "
                          f"allowed, so d is at most {MAX_DIMENSION}")
    stencil = builtin_harmonic_stencil(d)
    K = mspec.get("K")
    K = None if K is None else _finite(K, "model.K")
    return potential, stencil, K, _finite(mspec.get("k", 0.5), "model.k")


def _parse_omega(raw, d):
    def one(v):
        if isinstance(v, str):
            if v not in OMEGA_NAMES:
                raise SchemaError(f"unknown omega name {v!r}")
            return OMEGA_NAMES[v]
        return _finite(v, "every omega entry (a number or a known name)")

    if isinstance(raw, list):
        omega = [one(v) for v in raw]
    else:
        omega = [one(raw)]
    if len(omega) != d:
        raise SchemaError(f"omega has {len(omega)} components, model is {d}-dimensional")
    return check_irrational(omega)


def _parse_eps(raw, constants):
    if isinstance(raw, (int, float)):
        val = _finite(raw, "eps")
    elif isinstance(raw, str):
        head, slash, denom = raw.partition("/")
        if head == "eps0":
            val = constants.eps0
        elif head == "eps1":
            val = constants.eps1
        else:
            raise SchemaError(f"cannot parse eps {raw!r}")
        if slash:
            # nonzero ASCII digits in float range; isdigit takes superscripts
            if not (denom.isascii() and denom.isdigit()
                    and 0.0 < float(denom) < math.inf):
                raise SchemaError(f"cannot parse eps divisor in {raw!r}")
            val /= float(denom)
    else:
        raise SchemaError("eps must be a number or an eps0/eps1 expression")
    if val < 0:
        raise SchemaError("eps must be nonnegative")
    return val


def _within_cap(count, what, unit):
    """Refuse ``what``, the key and value of a spec, if it needs more than
    MAX_WINDOW_SITES ``unit``; ``count`` is exact integer arithmetic."""
    if count > MAX_WINDOW_SITES:
        raise SchemaError(f"{what} needs {_decimal(count)} {unit}; at most "
                          f"{MAX_WINDOW_SITES} are allowed")


def _decimal(count):
    """The decimal digits of a nonnegative int of any length; ``str``
    refuses ints of more than sys.get_int_max_str_digits() digits, so the
    digits are cut into blocks of 1000 that it accepts."""
    block = 10**1000
    parts = []
    while count >= block:
        count, low = divmod(count, block)
        parts.append(f"{low:01000d}")
    return str(count) + "".join(reversed(parts))


def _parse_window(spec, stencil, default=None, source="window_radius"):
    """The window of the spec's window_radius or, if it has none, of the
    radius ``default``, which messages credit to the key ``source``; with
    no default, window_radius is required."""
    radius = _integer(spec["window_radius"] if default is None else
                      spec.get("window_radius", default), source,
                      stencil.range + 1)
    _within_cap((2 * (radius + stencil.range) + 1) ** stencil.d,
                f"{source} {radius}", "sites with its collar")
    return Box.centered(radius, stencil.d)


def _parse_k_max(spec, radius, r):
    """The scan depth k_max of a window that holds the Birkhoff scan: a
    site SCAN_MARGIN * r from its edge, and two if k_max > 0."""
    k_max = _integer(spec.get("k_max", 2), "k_max", 0)
    least = SCAN_MARGIN * r + (k_max > 0)
    if radius < least:
        raise SchemaError(f"window_radius {radius} is too small for the Birkhoff"
                          f" scan: with k_max {k_max} it must be at least {least}")
    return k_max


def _parse_weights(p, n):
    """Well weights ``p``: a list of ``n`` finite numbers, as floats."""
    if not isinstance(p, list) or len(p) != n:
        raise SchemaError(f"p must be a list of {n} numbers (one weight per well)")
    return [_finite(v, "every entry of p") for v in p]


def _setup(spec, coupling="eps", radius=None, source="window_radius"):
    """Model, omega, coupling and window of a spec command, parsed once.

    The coupling is the spec key ``coupling``: ``eps``, or the list
    ``eps_values`` for ``sweep``. ``radius(stencil)`` is called only if
    the spec has no window_radius, and gives the window radius for that
    stencil; ``source`` names the key it came from.
    Returns them and the manifest entries they fill."""
    potential, stencil, K, k = _model_parts(spec)
    omega = _parse_omega(spec["omega"], stencil.d)
    model = build_model(potential, stencil, K, k, omega=omega)
    eps = spec[coupling]
    if coupling == "eps_values":
        if not isinstance(eps, list) or not eps:
            raise SchemaError("eps_values must be a nonempty list")
        eps = [_parse_eps(v, model.constants) for v in eps]
    else:
        eps = _parse_eps(eps, model.constants)
    if radius is None or "window_radius" in spec:
        window = _parse_window(spec, stencil)
    else:
        window = _parse_window(spec, stencil, radius(stencil), source)
    effective = {"omega": [float(w) for w in omega], coupling: eps,
                 "window_radius": int(window.hi[0])}
    return model, omega, eps, window, effective


def _hull_start(spec, model, omega, window, s):
    """Weights p, step hull, parameter s and sampled labels of a run that
    continues one hull sample; s is generic unless it is given."""
    p = _parse_weights(spec["p"], model.potential.minima.size)
    phi = step_hull_from_simplex(p, model.potential.minima)
    Bp = window.padded(model.stencil.range)
    s = generic_parameter(phi, omega, Bp, 0.5) if s is None else _finite(s, "s")
    return p, phi, s, sample_config(phi, omega, s, Bp)


def _write_json(path, obj):
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_csv(path, header, rows):
    """Write the header line, then the rows, at most ``_BLOCK`` at a time.

    Each row is joined as soon as it is read, so a block holds only its
    lines, not the rows they came from."""
    lines = map(",".join, rows)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        while block := list(islice(lines, _BLOCK)):
            fh.write("\n".join(block) + "\n")


def _in_workers(n, workers, work):
    """Call ``work`` on contiguous ranges that cover ``range(n)``, one per
    worker: the first range in this process, each other one in a child
    forked for it. At most ``n`` workers run, and one where ``os.fork``
    does not exist.

    A child leaves by ``os._exit``, so no buffer, exit hook or tracer
    inherited from this process runs twice, and it reports a failure as
    one line over a pipe. Every child is waited for, even when this
    process's own range raises; then a child's failure is raised here
    as an ``OSError``."""
    workers = max(1, min(workers, n)) if hasattr(os, "fork") else 1
    cuts = [n * w // workers for w in range(workers + 1)]
    parts = [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    children = []
    try:
        for part in parts[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _child(work, part, write)
                children.append((pid, read))
            except BaseException:
                os.close(read)
                raise
            finally:
                os.close(write)
        work(parts[0])
    finally:
        failures = [_reap(pid, read) for pid, read in children]
    for failure in failures:
        if failure is not None:
            raise OSError(failure)


def _child(work, part, write):
    """Body of a forked worker: never returns."""
    code = 1
    try:
        work(part)
        code = 0
    except BaseException as exc:
        os.write(write, " ".join(str(exc).splitlines()).encode())
    finally:
        os._exit(code)


def _reap(pid, read):
    """Wait for the worker ``pid``; None if it succeeded, else the line
    it sent over the pipe ``read``."""
    try:
        with open(read, "rb") as pipe:
            line = pipe.read().decode(errors="replace")
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code == 0:
        return None
    return line or f"worker process {pid} exited with status {code}"


def _site_header(d):
    return ["i"] if d == 1 else [f"i{a + 1}" for a in range(d)]


def _manifest(spec, out, effective, model, seed, tol):
    # the run directory is made here, after every key the command takes
    # was read, so a refused spec leaves none; threads deliberately
    # omitted: outputs must be byte-identical no matter how the work is
    # scheduled
    spec.refuse_unread()
    out.mkdir(parents=True, exist_ok=True)
    body = {
        "command": spec.command,
        "parameters": effective,
        "constants": model.constants.as_dict() if model is not None else None,
        "seed": seed,
        "tol": tol,
    }
    _write_json(out / "manifest.json", body)


class _Reprs:
    """``repr`` of float arrays, one column after another.

    A column as long as the previous one keeps that column's text at
    every cell whose bits did not change; neighbouring lamination
    members share most of their values site by site. The cells left
    over, or a whole column of another length, are formatted once per
    distinct float64 bit pattern. Bits, not float values, decide:
    -0.0 == 0.0, yet the two print differently, and NaN equals nothing,
    not even itself. Only the previous column is held.
    """

    def __init__(self):
        self._bits = np.empty(0, np.int64)
        self._texts = np.empty(0, object)

    def __call__(self, values):
        """Texts of the entries of ``values``, in row-major order."""
        bits = np.array(values, np.float64, order="C").reshape(-1) \
            .view(np.int64)
        if bits.size == self._bits.size:
            texts = self._texts.copy()
            changed = np.flatnonzero(bits != self._bits)
            texts[changed] = _distinct_reprs(bits[changed])
        else:
            texts = _distinct_reprs(bits)
        self._bits, self._texts = bits, texts
        return texts.tolist()


def _distinct_reprs(bits):
    """Object array of the texts of float64 bit patterns, ``repr`` run
    once per distinct pattern."""
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = np.empty(distinct.size, object)
    texts[:] = list(map(repr, distinct.view(np.float64).tolist()))
    return texts[inverse]


class _SolutionTable:
    """Rows of ``solution.csv`` files: site, label, solution and residual
    columns of continue results over one window.

    The site texts and the residual rows' positions are computed once
    per window, and each float column keeps its own `_Reprs`, so a
    lamination member reuses the texts of the member before it. The
    residual covers the interior sub-box only; collar rows keep an
    empty residual.
    """

    def __init__(self, model, eps, window):
        r = model.stencil.range
        Bp = window.padded(r)
        self.model, self.eps, self.window = model, eps, window
        self.header = _site_header(window.d) + ["x0", "x", "residual"]
        self._sites = [list(map(str, col)) for col in Bp.sites().T.tolist()]
        self._interior_rows = (np.arange(Bp.size).reshape(Bp.shape)
                               [window.interior(r).slice_in(Bp)].reshape(-1))
        self._size = Bp.size
        self._x0, self._x, self._residual = _Reprs(), _Reprs(), _Reprs()

    def rows(self, labels, result):
        resid = residual_field(self.model, self.eps, result.solution,
                               self.window)
        residuals = np.full(self._size, "", object)
        residuals[self._interior_rows] = self._residual(resid)
        return zip(*self._sites, self._x0(labels.values),
                   self._x(result.solution.values), residuals.tolist())


def cmd_continue(spec, out, seed, threads, tol):
    model, omega, eps, window, effective = _setup(spec)
    p, phi, s, x0 = _hull_start(spec, model, omega, window, spec.get("s"))
    k_max = _parse_k_max(spec, window.hi[0], model.stencil.range)
    M1, M2 = spec.get("M1"), spec.get("M2")
    probe = M1 is not None or M2 is not None
    if probe:
        M1 = _integer(M1, "M1", 0)
        M2 = _integer(M2, "M2", M1 + model.stencil.range)
        # the probe samples the labels on the ball of radius M2 + 3r
        _within_cap((2 * (M2 + 3 * model.stencil.range) + 1) ** window.d,
                    f"M2 {M2}", "sites in its truncation box")
    effective.update(p=p, s=s, k_max=k_max, M1=M1, M2=M2)
    _manifest(spec, out, effective, model, seed, tol)

    result = quasi_newton_continue(model, eps, x0, window, tol=tol)
    verdict = scan_birkhoff(model, window, result.solution, k_max)
    summary = {
        "iterations": result.iterations,
        "final_residual": result.final_residual,
        "contraction_rate": result.contraction_rate,
        "displacement": result.displacement,
        "eps": eps,
        "s": s,
        "ordered": verdict.ordered,
        "violation": list(verdict.violation) if verdict.violation else None,
    }
    if probe:
        big = Box.centered(M2 + 3 * model.stencil.range, window.d)
        labels_big = sample_config(phi, omega, s, big)
        summary["truncation"] = truncation_consistency(
            model, eps, labels_big, tol, M1, M2)

    table = _SolutionTable(model, eps, window)
    _write_csv(out / "solution.csv", table.header, table.rows(x0, result))
    _write_json(out / "summary.json", summary)
    return EXIT_OK


def cmd_lamination(spec, out, seed, threads, tol):
    model, omega, eps, window, effective = _setup(spec)
    p = _parse_weights(spec["p"], model.potential.minima.size)
    n_samples = _integer(spec["n_samples"], "n_samples", 1)
    _within_cap(n_samples * window.padded(model.stencil.range).size,
                f"n_samples {n_samples}", "sites over its members")
    k_max = _parse_k_max(spec, window.hi[0], model.stencil.range)
    effective.update(p=p, n_samples=n_samples, k_max=k_max)
    _manifest(spec, out, effective, model, seed, tol)

    lam = continue_lamination(model, eps, p, omega, window, n_samples,
                              tol=tol, k_max=k_max)
    table = _SolutionTable(model, eps, window)

    def write(part):
        for j in part:
            _write_csv(out / f"member_{j:03d}.csv", table.header,
                       table.rows(lam.labels(j), lam.members[j]))

    n = len(lam.members)
    _in_workers(n, threads, write)
    _write_csv(out / "ordering_matrix.csv", [f"m{b}" for b in range(n)],
               lam.order)
    _write_json(out / "summary.json", {
        "eps": eps,
        "members": n,
        "s_values": [float(s) for s in lam.s_values],
        "ordered": all(c != "x" for row in lam.order for c in row),
    })
    return EXIT_OK


def cmd_measure(spec, out, seed, threads, tol):
    n = _integer(spec["n"], "n", 1) if "n" in spec else None

    def ball_radius(stencil):
        # a spec without window_radius gets the window of its ball radius,
        # or the smallest window if that radius is smaller
        if n is not None:
            return max(n, stencil.range + 1)
        if stencil.d not in DEFAULT_DENSITY_RADIUS:
            raise SchemaError("no default ball radius in this dimension; "
                              "pass n")
        return DEFAULT_DENSITY_RADIUS[stencil.d]

    model, omega, eps, window, effective = _setup(spec, radius=ball_radius,
                                                  source="n")
    r = model.stencil.range
    if n is None:
        n = default_density_radius(window, r)
    if n > effective["window_radius"] + r:
        raise SchemaError(f"n must be at most window_radius + {r}, the "
                          "radius the continued configuration covers")
    sig_n = model.potential.minima.size
    p = _parse_weights(spec["p"], sig_n)
    inj = spec.get("injectivity")
    if inj is not None:
        ispec = spec.object("injectivity", "injectivity")
        spacing = _finite(ispec.get("spacing", 0.25), "injectivity spacing")
        if not 0.0 < spacing <= 1.0:
            raise SchemaError("injectivity spacing must lie in (0, 1]")
        steps = int(round(1.0 / spacing))
        # the grid holds the weights of at most `reach` steps in all, one
        # measure of the window per grid point and one row per pair
        reach = steps if 1.0 - steps * spacing >= -1e-12 else steps - 1
        points = math.comb(reach + sig_n - 1, sig_n - 1)
        what = f"injectivity spacing {spacing}"
        _within_cap(points * window.padded(r).size, what,
                    "sites over its grid")
        _within_cap(points * (points - 1) // 2, what, "pair rows")
    effective.update(p=p, n=n, injectivity=inj)
    _manifest(spec, out, effective, model, seed, tol)

    grid = [] if inj is None else _simplex_grid(sig_n, spacing)
    # one family over the window: the spec's own p, then the grid; each
    # grid measure is dropped once its masses are stacked
    measures = psi_epsilon_grid(model, eps, [p] + grid, omega, window, n,
                                tol=tol)
    mu = next(measures)
    _write_json(out / "measure.json", {"atoms": mu.as_pairs()})
    fractions = _Reprs()
    _write_csv(out / "density.csv",
               ["n"] + [f"p{j + 1}" for j in range(sig_n)],
               [[str(rad)] + fractions(fr) for rad, fr in mu.density_table])
    summary = {"atoms": mu.as_pairs(),
               "table": [[rad, [float(v) for v in fr]]
                         for rad, fr in mu.density_table]}

    if inj is not None:
        pairs = injectivity_pairs(grid, measures, _BLOCK)
        names = np.array([str(q) for q in range(len(grid))], object)
        l1_texts, dist_texts = _Reprs(), _Reprs()
        margins = []

        def rows():
            for a, b, l1, dist in pairs:
                margins.append(float(np.min(dist - l1)))
                yield from zip(names[a].tolist(), names[b].tolist(),
                               l1_texts(l1), dist_texts(dist))

        _write_csv(out / "injectivity.csv",
                   ["a", "b", "l1", "vague_distance"], rows())
        summary["injectivity"] = {
            "grid": grid,
            # a one-point grid has no pairs and no margin
            "min_margin": min(margins) if margins else None,
        }

    _write_json(out / "summary.json", summary)
    return EXIT_OK


def _simplex_grid(wells, spacing):
    """The weights of the simplex grid of a spacing: each tuple of
    integer steps c for the first wells - 1 weights, in lexicographic
    order, whose weights c * spacing leave a tail 1 - sum >= -1e-12, with
    the tail as the last weight. A prefix whose tail already fails ends
    its branch, since adding a weight of at least 0 never raises a
    rounded tail; so only kept tuples and one failing step per branch are
    visited, not all (steps + 1)**(wells - 1)."""
    steps = int(round(1.0 / spacing))
    grid = []
    # a stack of (weights, their sum) prefixes, the next one popped first
    stack = [([], 0)]
    while stack:
        weights, total = stack.pop()
        if len(weights) == wells - 1:
            grid.append(weights + [max(1.0 - total, 0.0)])
            continue
        branch = []
        for c in range(steps + 1):
            w = c * spacing
            if 1.0 - (total + w) < -1e-12:
                break
            branch.append((weights + [w], total + w))
        stack.extend(reversed(branch))
    return grid


def cmd_cantorus(spec, out, seed, threads, tol):
    model, omega, eps, window, effective = _setup(spec, radius=lambda _: 16)
    n_samples = _integer(spec.get("n_samples", 64), "n_samples", 2)
    # the members are windows of one hull sample n_samples sites longer
    _within_cap(window.padded(model.stencil.range).size + n_samples,
                f"n_samples {n_samples}", "sites in its stretched window")
    wells = spec.get("wells", "minima")
    if wells == "minima":
        sigma = model.potential.minima
    elif wells == "criticals":
        sigma = model.potential.criticals
    else:
        raise SchemaError("wells must be 'minima' or 'criticals'")
    # the manifest echoes p and s0 as given; the hull reads them as floats
    p = spec.get("p", [1.0 / sigma.size] * sigma.size)
    _parse_weights(p, sigma.size)
    s0 = spec.get("s0", 0.5)
    _finite(s0, "s0")
    effective.update(p=p, wells=wells, n_samples=n_samples, s0=s0)
    _manifest(spec, out, effective, model, seed, tol)

    hull = step_hull_from_simplex(p, sigma)
    res = extract_cantorus(model, eps, hull, omega, window, n_samples,
                           s0=s0, newton_tol=tol)
    _write_csv(out / "cantorus.csv", ["s", "x0", "y0"],
               zip(_Reprs()(res.s_values), _Reprs()(res.points[:, 0]),
                   _Reprs()(res.points[:, 1])))
    _write_json(out / "summary.json", {
        "eps": eps,
        "n_samples": int(n_samples),
        "invariance_error": res.invariance_error,
        "worst_index": res.worst_index,
        "mean_momentum": res.mean_momentum,
    })
    return EXIT_OK


def cmd_orbit(spec, out, seed, threads, tol):
    potential, stencil, K, k = _model_parts(spec)
    if stencil.d != 1:
        raise SchemaError("orbit needs a one-dimensional stencil")
    window = _parse_window(spec, stencil, 32)
    n = window.padded(stencil.range).size
    if "labels" in spec:
        labels = spec["labels"]
        if not isinstance(labels, list) or len(labels) != n:
            raise SchemaError(f"labels must be a list of {n} values")
        labels = np.asarray([_finite(v, "every label") for v in labels])
    else:
        # a fair coin per site: the critical point 0, or its lift by 1
        labels = np.random.default_rng(seed).integers(0, 2, n).astype(float)
    # unless the model gives K, the envelope is sized for the label spread
    if K is None:
        K = float(np.max(np.abs(np.diff(labels)))) + 2.0
    model = build_model(potential, stencil, K, k)
    eps = _parse_eps(spec["eps"], model.constants)
    effective = {"eps": eps, "window_radius": int(window.hi[0]),
                 "labels": [float(v) for v in labels]}
    _manifest(spec, out, effective, model, seed, tol)

    orbit = chaotic_momentum_orbit(model, eps, labels, window,
                                   newton_tol=tol)
    _write_csv(out / "orbit.csv", ["i", "x", "y"],
               zip(map(str, range(orbit.points.shape[0])),
                   _Reprs()(orbit.points[:, 0]),
                   _Reprs()(orbit.points[:, 1])))
    _write_json(out / "summary.json", {
        "eps": eps,
        "points": int(orbit.points.shape[0]),
        "map_residual": orbit.map_residual(model.potential),
    })
    return EXIT_OK


def cmd_verify(spec, out, seed, threads, tol):
    # the manifest echoes the tolerances as given
    overrides = spec.object("checks", "checks", {})
    for name, _ in CHECKS:
        if name in overrides:
            _finite(overrides[name], f"the tolerance of {name}")
    model = None
    if "model" in spec:
        potential, stencil, K, k = _model_parts(spec)
        model = build_model(potential, stencil, K, k,
                            omega=[GOLDEN_MEAN] * stencil.d)
    spec.refuse_unread()  # before the suite runs, with or without --out
    rows = run_suite(model, seed=seed, overrides=overrides)
    width = max(len(r.name) for r in rows)
    for r in rows:
        print(f"{r.name:<{width}}  {'PASS' if r.passed else 'FAIL'}  {r.detail}")
    if out is not None:
        _manifest(spec, out, {"checks": overrides}, model, seed, tol)
        _write_json(out / "verify.json", {
            "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                       for r in rows],
        })
    return EXIT_OK if all(r.passed for r in rows) else EXIT_REFUSED


def cmd_sweep(spec, out, seed, threads, tol):
    from concurrent.futures import ThreadPoolExecutor

    model, omega, eps_list, window, effective = _setup(spec, "eps_values")
    p, _, s, x0 = _hull_start(spec, model, omega, window, None)
    effective.update(p=p, s=s)
    _manifest(spec, out, effective, model, seed, tol)

    def run(eps):
        return quasi_newton_continue(model, eps, x0, window, tol=tol)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(run, eps_list))

    floats = np.array([[eps, r.final_residual, r.contraction_rate,
                        r.displacement] for eps, r in zip(eps_list, results)])
    eps_t, residual, rate, displacement = (_Reprs()(c) for c in floats.T)
    _write_csv(out / "sweep.csv",
               ["eps", "iterations", "residual", "rate", "displacement"],
               zip(eps_t, [str(r.iterations) for r in results], residual,
                   rate, displacement))
    _write_json(out / "summary.json", {
        "eps_values": eps_list,
        "max_displacement": max(r.displacement for r in results),
    })
    return EXIT_OK


_COMMANDS = {
    "continue": cmd_continue,
    "lamination": cmd_lamination,
    "measure": cmd_measure,
    "cantorus": cmd_cantorus,
    "orbit": cmd_orbit,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def _build_parser():
    parser = _Parser(prog="lamlab", description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--spec", help="JSON experiment spec file")
    parser.add_argument("--out", help="output directory for run artifacts")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--tol", type=float, default=1e-12)
    return parser


def _usable_cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        threads = args.threads
        if threads is None:
            threads = _usable_cpus()
        if threads < 1:
            raise SchemaError("threads must be at least 1")
        # more workers than CPUs cannot finish sooner
        threads = min(threads, _usable_cpus())
        if not (math.isfinite(args.tol) and args.tol > 0.0):
            raise SchemaError("tol must be a positive finite number")
        seed = _integer(args.seed, "seed", 0)
        spec = _load_spec(args.spec, args.command)
        if args.out is None and args.command != "verify":
            raise SchemaError("this command needs --out <dir>")
        out = None if args.out is None else Path(args.out)
        return _COMMANDS[args.command](spec, out, seed, threads, args.tol)
    except (LamlabError, ValueError, OverflowError, OSError,
            MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, NoConvergence):
            return EXIT_NO_CONVERGENCE
        return EXIT_REFUSED if isinstance(exc, _REFUSALS) else EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
