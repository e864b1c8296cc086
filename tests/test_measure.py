"""Circle measures, counting densities, and the simplex-to-measure map."""

import numpy as np
import pytest

from lamlab import (
    Box,
    CircleMeasure,
    Configuration,
    ContinuationRefused,
    UnclassifiableSite,
    build_model,
    builtin_harmonic_stencil,
    builtin_n_well,
    check_irrational,
    generic_parameter,
    injectivity_pairs,
    l1_norms,
    measure_from_density,
    measure_from_hull,
    potential_from_table,
    psi_epsilon,
    psi_epsilon_grid,
    quasi_newton_continue,
    sample_config,
    step_hull_from_simplex,
    vague_distance,
)
from lamlab import measure
from lamlab.continuation import _refuse_coupling
from lamlab.measure import default_density_radius

WELLS = np.asarray([0.0, 0.5])


def test_atoms_reduce_sort_and_query():
    mu = CircleMeasure([1.25, 0.5], [0.4, 0.6])
    assert np.allclose(mu.atoms, [0.25, 0.5])
    assert np.allclose(mu.masses, [0.4, 0.6])
    assert mu.mass_at(0.25) == 0.4
    assert mu.mass_at(1.5) == 0.6
    assert mu.mass_at(0.9) == 0.0
    assert mu.as_pairs() == [[0.25, 0.4], [0.5, 0.6]]


def test_coincident_atoms_merge():
    mu = CircleMeasure([0.3, 0.3 + 5e-13], [0.2, 0.8])
    assert mu.atoms.size == 1
    assert mu.mass_at(0.3) == pytest.approx(1.0, abs=1e-15)
    # wrap-around: a location just below 1 merges with one at 0
    nu = CircleMeasure([0.0, 1.0 - 5e-13], [0.5, 0.5])
    assert nu.atoms.size == 1
    assert nu.mass_at(0.0) == pytest.approx(1.0, abs=1e-15)


def test_measure_validation():
    with pytest.raises(ValueError):
        CircleMeasure([0.1, 0.2], [1.0])
    with pytest.raises(ValueError):
        CircleMeasure([0.1, 0.2], [-0.5, 1.5])
    with pytest.raises(ValueError):
        CircleMeasure([0.1, 0.2], [0.3, 0.3])
    # NaN slips past the sign and total-mass checks
    with pytest.raises(ValueError):
        CircleMeasure([0.1], [np.nan])
    with pytest.raises(ValueError):
        CircleMeasure([np.nan, 0.2], [0.5, 0.5])


def test_measure_from_hull_masses():
    phi = step_hull_from_simplex([0.3, 0.7], WELLS)
    mu = measure_from_hull(phi)
    assert mu.mass_at(0.0) == pytest.approx(0.3, abs=1e-15)
    assert mu.mass_at(0.5) == pytest.approx(0.7, abs=1e-15)


def counting_oracle(config, wells, n):
    """Per-well frequencies over the L1 ball, by explicit looping."""
    counts = np.zeros(len(wells))
    inside = 0
    for site, v in zip(config.domain.sites(), config.values.ravel()):
        if int(np.sum(np.abs(site))) > n:
            continue
        inside += 1
        u = v % 1.0
        d = [min(abs(u - w), 1.0 - abs(u - w)) for w in wells]
        counts[int(np.argmin(d))] += 1.0
    return counts / inside


def test_density_counting_matches_oracle(golden):
    phi = step_hull_from_simplex([0.3, 0.7], WELLS)
    dom = Box.centered(150, 1)
    s = generic_parameter(phi, golden, dom, 0.37)
    config = sample_config(phi, golden, s, dom)
    mu = measure_from_density(config, WELLS, 0.02, 150)
    want = counting_oracle(config, WELLS, 150)
    assert np.array_equal(mu.masses, want)
    assert np.max(np.abs(mu.masses - [0.3, 0.7])) <= 4.0 * 2.0 / 150.0
    radii = [row[0] for row in mu.density_table]
    assert radii == [37, 75, 150]
    for _, frac in mu.density_table:
        assert np.sum(frac) == pytest.approx(1.0, abs=1e-12)


def test_density_matches_oracle_2d():
    phi = step_hull_from_simplex([0.45, 0.55], WELLS)
    omega = np.asarray([np.sqrt(2.0) - 1.0, np.sqrt(3.0) - 1.0])
    dom = Box.centered(12, 2)
    s = generic_parameter(phi, omega, dom, 0.29)
    config = sample_config(phi, omega, s, dom)
    mu = measure_from_density(config, WELLS, 0.02, 12)
    assert np.array_equal(mu.masses, counting_oracle(config, WELLS, 12))


def test_unclassifiable_site(golden):
    phi = step_hull_from_simplex([0.5, 0.5], WELLS)
    dom = Box.centered(20, 1)
    config = sample_config(phi, golden, generic_parameter(phi, golden, dom, 0.3),
                           dom)
    vals = config.values.copy()
    vals[dom.index(np.asarray([3]))] = 0.25  # halfway between the wells
    with pytest.raises(UnclassifiableSite) as info:
        measure_from_density(Configuration(dom, vals), WELLS, 0.02, 20)
    assert info.value.site == (3,)
    assert info.value.value == 0.25
    # the same corruption outside the counting ball is ignored
    vals2 = config.values.copy()
    vals2[dom.index(np.asarray([15]))] = 0.25
    measure_from_density(Configuration(dom, vals2), WELLS, 0.02, 10)


def test_density_argument_guards(golden):
    phi = step_hull_from_simplex([0.5, 0.5], WELLS)
    dom = Box.centered(5, 1)
    config = sample_config(phi, golden, 0.3, dom)
    with pytest.raises(ValueError):
        measure_from_density(config, WELLS, 0.02, 9)
    with pytest.raises(ValueError):
        measure_from_density(config, WELLS, 0.02, 0)
    with pytest.raises(ValueError):
        measure_from_density(config, [], 0.02, 5)


def test_counting_survives_continuation(model1, golden):
    # continuation moves no site across its trust interval, so the
    # counting measures of the labels and of the solution agree exactly
    eps = model1.constants.eps1 / 2.0
    window = Box.centered(30, 1)
    phi = step_hull_from_simplex([0.3, 0.7], model1.potential.minima)
    Bp = window.padded(1)
    x0 = sample_config(phi, golden, generic_parameter(phi, golden, Bp, 0.4), Bp)
    res = quasi_newton_continue(model1, eps, x0, window)
    before = measure_from_density(x0, model1.potential.minima,
                                  model1.constants.delta0, 30)
    after = measure_from_density(res.solution, model1.potential.minima,
                                 model1.constants.delta0, 30)
    assert np.array_equal(before.masses, after.masses)


def test_vague_distance_cases():
    d0 = CircleMeasure([0.0], [1.0])
    d5 = CircleMeasure([0.5], [1.0])
    assert vague_distance(d0, d5) == 2.0
    assert vague_distance(d0, d0) == 0.0
    mu = CircleMeasure([0.0, 0.5], [0.3, 0.7])
    nu = CircleMeasure([0.0, 0.5], [0.5, 0.5])
    assert vague_distance(mu, nu) == pytest.approx(0.4, abs=1e-15)
    assert vague_distance(mu, nu) == vague_distance(nu, mu)


def assert_table_matches_pairs(measures):
    # each measure's masses are its grid point, so the l1 and the vague
    # distance columns sum the same numbers in the same order
    grid = [mu.masses for mu in measures]
    want_a, want_b = np.triu_indices(len(measures), 1)
    for block in (1, 5, 4096):
        # a generator of measures is read once, as a list is
        blocks = list(injectivity_pairs(grid, iter(measures), block))
        a, b, l1, dist = (np.concatenate(col) for col in zip(*blocks))
        assert np.array_equal(a, want_a) and np.array_equal(b, want_b)
        assert np.array_equal(l1, dist)
        for k in range(a.size):
            assert dist[k] == vague_distance(measures[a[k]], measures[b[k]])
        # whole rows a per block, at most block pairs unless one row
        for block_a, *_ in blocks:
            assert block_a.size <= block or block_a[0] == block_a[-1]
        for before, after in zip(blocks, blocks[1:]):
            assert before[0][-1] < after[0][0]


@pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
def test_vague_distance_table_matches_pairs(n_atoms):
    rng = np.random.default_rng(n_atoms)
    atoms = np.sort(rng.random(n_atoms))
    masses = rng.random((12, n_atoms))
    if n_atoms > 1:
        masses[3:6, rng.integers(n_atoms)] = 0.0
    measures = [CircleMeasure(atoms, m / np.sum(m)) for m in masses]
    measures.append(CircleMeasure(atoms, np.eye(n_atoms)[0]))
    measures.append(CircleMeasure(atoms, np.eye(n_atoms)[-1]))
    assert_table_matches_pairs(measures)
    assert list(injectivity_pairs([masses[0]], measures[:1], 4)) == []
    assert list(injectivity_pairs([], [], 4)) == []


def test_vague_distance_table_of_psi_epsilon(golden):
    model3 = build_model(builtin_n_well(3), builtin_harmonic_stencil(1),
                         omega=golden)
    eps = model3.constants.eps1 / 2.0
    window = Box.centered(40, 1)
    grid = [[0.2, 0.3, 0.5], [1 / 3, 1 / 3, 1 / 3], [0.0, 0.25, 0.75],
            [0.6, 0.0, 0.4], [0.15, 0.7, 0.15], [0.0, 0.0, 1.0]]
    measures = [psi_epsilon(model3, eps, p, golden, window, n=40)
                for p in grid]
    assert_table_matches_pairs(measures)


def test_vague_distance_table_needs_one_atom_array():
    # refused when called, before the first block is asked for
    mu = CircleMeasure([0.0, 0.5], [0.3, 0.7])
    for other in (CircleMeasure([0.0, 0.25], [0.3, 0.7]),
                  CircleMeasure([0.0], [1.0])):
        with pytest.raises(ValueError):
            injectivity_pairs([[0.3], [0.7]], [mu, other], 4)
    # a generator is read only up to the first measure that differs
    rest = iter([mu, other, mu])
    with pytest.raises(ValueError):
        injectivity_pairs([[0.3], [0.7], [0.3]], rest, 4)
    assert next(rest) is mu


def test_psi_epsilon_recovers_simplex(model1, golden):
    eps = model1.constants.eps1 / 2.0
    window = Box.centered(40, 1)
    mu = psi_epsilon(model1, eps, [0.3, 0.7], golden, window, n=40)
    assert np.allclose(mu.atoms, model1.potential.minima)
    assert np.max(np.abs(mu.masses - [0.3, 0.7])) <= 4.0 * 2.0 / 40.0
    with pytest.raises(ContinuationRefused):
        psi_epsilon(model1, 1.5 * model1.constants.eps1, [0.3, 0.7], golden,
                    window, n=40)


def reference_density(config, sigma, delta0, n):
    """``measure_from_density`` as it counted before the ball table: every
    site classified, one mask per ball radius."""
    sigma = np.mod(np.asarray(sigma, dtype=float), 1.0)
    n = int(n)
    sites = config.domain.sites()
    norms = l1_norms(sites)
    vals = np.mod(config.values.ravel(), 1.0)
    dist = np.abs(vals[:, None] - sigma[None, :])
    dist = np.minimum(dist, 1.0 - dist)
    nearest = np.argmin(dist, axis=1)
    best = dist[np.arange(dist.shape[0]), nearest]
    inside = norms <= n
    bad = inside & (best > delta0)
    if np.any(bad):
        worst = int(np.argmax(np.where(bad, best, -np.inf)))
        raise UnclassifiableSite(
            f"site value {vals[worst]!r} is {best[worst]:.3g} from the nearest "
            f"well, beyond the classification radius {delta0:.3g}",
            site=tuple(sites[worst].tolist()),
            value=float(config.values.ravel()[worst]),
        )
    table = []
    for rad in sorted({max(n // 4, 1), max(n // 2, 1), n}):
        mask = norms <= rad
        counts = np.bincount(nearest[mask], minlength=sigma.size).astype(float)
        table.append((rad, counts / float(np.sum(mask))))
    return CircleMeasure(sigma, table[-1][1], density_table=table)


def reference_psi(model, eps, p, omega, window, n=None, tol=1e-12,
                  cont=quasi_newton_continue):
    """``psi_epsilon`` as it was before the grid: one point, every step
    through the public functions."""
    omega = check_irrational(omega)
    cst = model.constants
    _refuse_coupling(cst, eps, "eps1")
    if n is None:
        n = default_density_radius(window, model.stencil.range)
    phi = step_hull_from_simplex(p, model.potential.minima)
    Bp = window.padded(model.stencil.range)
    s = generic_parameter(phi, omega, Bp, 0.5)
    x0 = sample_config(phi, omega, s, Bp)
    res = cont(model, eps, x0, window, tol=tol)
    return reference_density(res.solution, model.potential.minima,
                             cst.delta0, n)


def assert_same_measure(mu, want):
    assert mu.atoms.tobytes() == want.atoms.tobytes()
    assert mu.masses.tobytes() == want.masses.tobytes()
    assert [rad for rad, _ in mu.density_table] == \
        [rad for rad, _ in want.density_table]
    for (_, got), (_, ref) in zip(mu.density_table, want.density_table):
        assert got.tobytes() == ref.tobytes()


TABLE_WELLS = potential_from_table(
    -np.cos(2.0 * np.pi * np.arange(64) / 64.0)
    - 0.8 * np.cos(4.0 * np.pi * np.arange(64) / 64.0 + 0.7))


@pytest.fixture(scope="module")
def grid_cases(golden):
    omega2 = np.asarray([np.sqrt(2.0) - 1.0, np.sqrt(3.0) - 1.0])

    def case(potential, d, omega, radius, n, points):
        model = build_model(potential, builtin_harmonic_stencil(d),
                            omega=omega)
        return (model, model.constants.eps1 / 2.0, points, omega,
                Box.centered(radius, d), n)

    wells = TABLE_WELLS.minima.size
    return {
        # every point of the spacing-1/4 grid, zero-mass wells included
        "1d-three-wells": case(
            builtin_n_well(3), 1, golden, 40, 40,
            [[a / 4, b / 4, (4 - a - b) / 4]
             for a in range(5) for b in range(5 - a)]),
        "2d": case(builtin_n_well(2), 2, omega2, 60, None,
                   [[0.3, 0.7], [0.5, 0.5], [0.0, 1.0]]),
        "table": case(TABLE_WELLS, 1, golden, 30, 30,
                      [[1.0 / wells] * wells,
                       [1.0] + [0.0] * (wells - 1)]),
        "zero-mass-well": case(builtin_n_well(3), 1, golden, 24, 17,
                               [[0.0, 0.4, 0.6], [0.5, 0.0, 0.5]]),
    }


@pytest.mark.parametrize("name", ["1d-three-wells", "2d", "table",
                                  "zero-mass-well"])
def test_psi_epsilon_grid_matches_per_point_reference(grid_cases, name):
    model, eps, points, omega, window, n = grid_cases[name]
    measures = list(psi_epsilon_grid(model, eps, points, omega, window, n))
    assert len(measures) == len(points)
    for p, mu in zip(points, measures):
        assert_same_measure(mu, reference_psi(model, eps, p, omega, window,
                                              n))
    # the one-point form is the grid at [p]
    assert_same_measure(psi_epsilon(model, eps, points[-1], omega, window, n),
                        measures[-1])


def test_psi_epsilon_grid_names_the_same_unclassifiable_site(
        grid_cases, monkeypatch):
    model, eps, points, omega, window, n = grid_cases["zero-mass-well"]
    r = model.stencil.range

    def drifting(model, eps, x0, B, tol):
        # two sites of the ball leave their wells (the wells are 1/3
        # apart), the second further; a site outside the ball goes further
        # still and must not count
        res = quasi_newton_continue(model, eps, x0, B, tol=tol)
        values = res.solution.values
        values[r + window.hi[0] + 3] += 0.1
        values[r + window.hi[0] - 5] -= 0.15
        values[0] += 0.16
        return res

    monkeypatch.setattr(measure, "quasi_newton_continue", drifting)
    for p in points:
        with pytest.raises(UnclassifiableSite) as ref:
            reference_psi(model, eps, p, omega, window, n, cont=drifting)
        with pytest.raises(UnclassifiableSite) as got:
            next(psi_epsilon_grid(model, eps, [p], omega, window, n))
        assert str(got.value) == str(ref.value)
        assert got.value.site == ref.value.site == (-5,)
        assert got.value.value == ref.value.value


def test_psi_epsilon_grid_checks_omega_once(grid_cases, monkeypatch):
    model, eps, points, omega, window, n = grid_cases["1d-three-wells"]
    calls = []

    def counted(omega):
        calls.append(omega)
        return check_irrational(omega)

    monkeypatch.setattr(measure, "check_irrational", counted)
    assert len(list(psi_epsilon_grid(model, eps, points, omega, window,
                                      n))) == len(points)
    assert len(calls) == 1


@pytest.mark.parametrize("d,radius,n", [(1, 20, 1), (1, 20, 2), (1, 20, 3),
                                        (1, 20, 17), (2, 9, 7), (2, 9, 9)])
def test_measure_from_density_matches_mask_counting(d, radius, n):
    rng = np.random.default_rng(7 + d + n)
    dom = Box.centered(radius, d)
    wells = np.asarray([0.0, 0.3, 0.6])
    base = rng.choice(wells, size=dom.size) + rng.integers(-3, 4, dom.size)
    config = Configuration(dom, base + rng.uniform(-0.05, 0.05, dom.size))
    assert_same_measure(measure_from_density(config, wells, 0.1, n),
                        reference_density(config, wells, 0.1, n))
