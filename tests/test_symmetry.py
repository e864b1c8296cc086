"""Exact relations between runs: the model's symmetries map one
continuation to another, with no reference solution needed.

The 1-D cases continue the two-well golden chain: p = (0.3, 0.7) at
eps1/2 over the window of radius 512. Relations that hold bit for bit
are asserted bit for bit; the others within a stated bound that stays
as it is, and a relation that fails today is asserted to fail the way
it does.
"""

import json

import numpy as np
import pytest

from lamlab import (GOLDEN_MEAN, Box, Configuration, build_model,
                    builtin_harmonic_stencil, builtin_n_well,
                    generic_parameter, quasi_newton_continue, sample_config,
                    step_hull_from_simplex)
from lamlab.cli import main
from lamlab.errors import NoConvergence

RADIUS = 512
P = [0.3, 0.7]
OMEGA = [GOLDEN_MEAN]


@pytest.fixture(scope="module")
def chain():
    """Model, eps, window, hull, generic parameter, labels and their
    continuation of the 1-D two-well golden chain."""
    model = build_model(builtin_n_well(2), builtin_harmonic_stencil(1),
                        omega=OMEGA)
    eps = model.constants.eps1 / 2.0
    window = Box.centered(RADIUS, 1)
    Bp = window.padded(1)
    phi = step_hull_from_simplex(P, model.potential.minima)
    s = generic_parameter(phi, OMEGA, Bp, 0.5)
    labels = sample_config(phi, OMEGA, s, Bp)
    solved = quasi_newton_continue(model, eps, labels, window)
    return model, eps, window, phi, s, labels, solved


@pytest.mark.parametrize("k", [1, 7, 1000])
def test_site_translation_is_bit_exact(chain, k):
    # the hull sampled at s + omega k over W, and at s over W + k
    model, eps, window, phi, s, _, _ = chain
    moved = Box((-RADIUS + k,), (RADIUS + k,))
    a = sample_config(phi, OMEGA, s + GOLDEN_MEAN * k, window.padded(1))
    b = sample_config(phi, OMEGA, s, moved.padded(1))
    assert np.array_equal(a.values, b.values)
    ra = quasi_newton_continue(model, eps, a, window)
    rb = quasi_newton_continue(model, eps, b, moved)
    assert ra.iterations == rb.iterations
    assert np.array_equal(ra.solution.values, rb.solution.values)


def test_reflection_is_bit_exact(chain):
    # V is even and the force is linear, so x -> -x maps solutions to
    # solutions
    model, eps, window, _, _, labels, solved = chain
    flipped = Configuration(labels.domain, -labels.values)
    got = quasi_newton_continue(model, eps, flipped, window)
    assert got.iterations == solved.iterations
    assert np.array_equal(got.solution.values, -solved.solution.values)


def test_two_dimensional_translation_is_bit_exact():
    omega = [np.sqrt(2.0) - 1.0, np.sqrt(3.0) - 1.0]
    model = build_model(builtin_n_well(2), builtin_harmonic_stencil(2),
                        omega=omega)
    eps = model.constants.eps1 / 2.0
    window = Box.centered(12, 2)
    phi = step_hull_from_simplex(P, model.potential.minima)
    s = generic_parameter(phi, omega, window.padded(1), 0.5)
    for k in [(1, 0), (3, 5), (-40, 17)]:
        moved = window.shift(k)
        a = sample_config(phi, omega, s + float(np.dot(k, omega)),
                          window.padded(1))
        b = sample_config(phi, omega, s, moved.padded(1))
        assert np.array_equal(a.values, b.values)
        ra = quasi_newton_continue(model, eps, a, window)
        rb = quasi_newton_continue(model, eps, b, moved)
        assert np.array_equal(ra.solution.values, rb.solution.values), k


def test_integer_lift_holds_only_to_a_floor_that_grows_with_the_lift(chain):
    """x -> x + m maps solutions to solutions, but V' and V'' are read
    on the unreduced lift, so the error grows with m and continuation
    stops converging from m = 2**20 on. ROADMAP item 4 (reduced
    arguments) is to make this relation bit exact at m = 2**40; it then
    turns this test around."""
    model, eps, window, _, _, labels, solved = chain
    for m in (1, 2**10):
        lifted = Configuration(labels.domain, labels.values + m)
        got = quasi_newton_continue(model, eps, lifted, window)
        error = np.max(np.abs(got.solution.values - m
                              - solved.solution.values))
        assert 0.0 < error <= 3e-13, m
    lifted = Configuration(labels.domain, labels.values + 2**20)
    with pytest.raises(NoConvergence, match="after 200 sweeps"):
        quasi_newton_continue(model, eps, lifted, window)


def table_run(tmp_path, a):
    """Exit code and solution.csv columns of ``continue`` on the
    64-sample table -a cos(4 pi s), whose wells are those of the
    two-well chain."""
    samples = (-a * np.cos(4.0 * np.pi * np.arange(64) / 64.0)).tolist()
    spec = {"model": {"potential": {"kind": "table", "samples": samples}},
            "omega": "golden", "eps": "eps1/2", "p": P,
            "window_radius": RADIUS}
    path = tmp_path / f"table-{a:g}.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / f"run-{a:g}"
    code = main(["continue", "--spec", str(path), "--out", str(out)])
    rows = (out / "solution.csv").read_text().splitlines()[1:]
    columns = list(zip(*(row.split(",") for row in rows)))
    return code, np.array(columns[1], float), np.array(columns[2], float)


def test_scaling_the_background_and_the_coupling_together(tmp_path):
    """(V, eps) -> (a V, a eps) leaves V' + eps force = 0 as it is, and
    continuation stops on the step resid / V''(labels), which does not
    scale. Each a gives exit 0, the labels of a = 1, and a solution
    within 4 ulps of the window's largest |x| (1 ulp was seen)."""
    code, labels, x = table_run(tmp_path, 1.0)
    assert code == 0
    bound = 4 * np.spacing(np.max(np.abs(x)))
    for a in (1e-3, 1e3, 1e6, 1e8):
        got_code, got_labels, got_x = table_run(tmp_path, a)
        assert got_code == 0, a
        assert np.array_equal(got_labels, labels), a
        assert np.max(np.abs(got_x - x)) <= bound, a


def lamination_run(tmp_path, a):
    """Exit code, x0 and x columns of every member, the ordering matrix
    and the s values of ``lamination`` on the table -a cos(4 pi s)."""
    samples = (-a * np.cos(4.0 * np.pi * np.arange(64) / 64.0)).tolist()
    spec = {"model": {"potential": {"kind": "table", "samples": samples}},
            "omega": "golden", "eps": "eps1/2", "p": P,
            "window_radius": 64, "n_samples": 8}
    path = tmp_path / f"lamination-{a:g}.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / f"lamination-run-{a:g}"
    code = main(["lamination", "--spec", str(path), "--out", str(out)])
    members = []
    for j in range(8):
        rows = (out / f"member_{j:03d}.csv").read_text().splitlines()[1:]
        columns = list(zip(*(row.split(",") for row in rows)))
        members.append((np.array(columns[1], float),
                        np.array(columns[2], float)))
    order = (out / "ordering_matrix.csv").read_text()
    s_values = json.loads((out / "summary.json").read_text())["s_values"]
    return code, members, order, s_values


def test_scaling_the_background_and_the_coupling_of_a_lamination(tmp_path):
    """The scaling relation member by member: each a gives exit 0, the
    labels, order and s values of a = 1, and each member within 4 ulps
    of that member's largest |x| (1 ulp was seen)."""
    code, members, order, s_values = lamination_run(tmp_path, 1.0)
    assert code == 0
    for a in (1e-3, 1e3, 1e6, 1e8):
        got_code, got_members, got_order, got_s = lamination_run(tmp_path, a)
        assert got_code == 0, a
        assert got_order == order, a
        assert got_s == s_values, a
        for j, ((labels, x), (got_labels, got_x)) in enumerate(
                zip(members, got_members)):
            assert np.array_equal(got_labels, labels), (a, j)
            bound = 4 * np.spacing(np.max(np.abs(x)))
            assert np.max(np.abs(got_x - x)) <= bound, (a, j)


def relabelling_error(model, eps, labels, solved, window):
    """The largest distance between the solution plus 1/2 and the
    continuation of the labels plus 1/2, and 4 ulps of the window's
    largest |x|."""
    moved = Configuration(labels.domain, labels.values + 0.5)
    got = quasi_newton_continue(model, eps, moved, window).solution.values
    want = solved.solution.values + 0.5
    return (np.max(np.abs(got - want)),
            4 * np.spacing(max(np.max(np.abs(want)), np.max(np.abs(got)))))


def test_relabelling_the_wells_of_the_chain(chain):
    """V has period 1/2, so x -> x + 1/2 swaps the two wells and maps
    solutions to solutions; sin is not exactly antiperiodic in floating
    point, so the relation holds to an ulp (one was seen)."""
    model, eps, window, _, _, labels, solved = chain
    error, bound = relabelling_error(model, eps, labels, solved, window)
    assert error <= bound


def test_relabelling_the_wells_in_two_dimensions():
    omega = [np.sqrt(2.0) - 1.0, np.sqrt(3.0) - 1.0]
    model = build_model(builtin_n_well(2), builtin_harmonic_stencil(2),
                        omega=omega)
    eps = model.constants.eps1 / 2.0
    window = Box.centered(12, 2)
    phi = step_hull_from_simplex(P, model.potential.minima)
    s = generic_parameter(phi, omega, window.padded(1), 0.5)
    labels = sample_config(phi, omega, s, window.padded(1))
    solved = quasi_newton_continue(model, eps, labels, window)
    error, bound = relabelling_error(model, eps, labels, solved, window)
    assert error <= bound
