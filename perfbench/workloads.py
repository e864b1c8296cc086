"""Workload specs for the benchmark, generated from a seed.

Each workload is one ``lamlab`` CLI command with a JSON spec. The seed
picks the well masses ``p`` (every mass at least 0.15) and, for the
cantorus, the base parameter ``s0``; sizes never depend on the seed.
``size="small"`` shrinks every workload so the self-test runs in seconds.
"""

import math
import random

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SQRT2_1 = math.sqrt(2.0) - 1.0
SQRT3_1 = math.sqrt(3.0) - 1.0

MIN_MASS = 0.15

SIZES = {
    "full": {
        "lamination-1d": {"window_radius": 4096, "n_samples": 64},
        "cantorus-1d": {"window_radius": 16, "n_samples": 2000},
        "sweep-2d": {"window_radius": 300, "n_eps": 16},
        "measure-injectivity": {"window_radius": 377, "spacing": 0.04},
    },
    "small": {
        "lamination-1d": {"window_radius": 64, "n_samples": 8},
        "cantorus-1d": {"window_radius": 16, "n_samples": 50},
        "sweep-2d": {"window_radius": 20, "n_eps": 4},
        "measure-injectivity": {"window_radius": 144, "spacing": 0.25},
    },
}


def _masses(rng, n):
    """n well masses, each at least MIN_MASS, summing to one (4 decimals)."""
    cuts = sorted(rng.random() for _ in range(n - 1))
    parts = [b - a for a, b in zip([0.0] + cuts, cuts + [1.0])]
    free = 1.0 - n * MIN_MASS
    head = [round(MIN_MASS + free * q, 4) for q in parts[:-1]]
    return head + [round(1.0 - sum(head), 4)]


def _model(n_wells, d):
    return {"potential": {"kind": "n_well", "N": n_wells},
            "stencil": {"kind": "harmonic", "d": d}}


def make(name, seed, size="full"):
    """The workload as a dict: command, spec, expected continuation calls,
    and the (N, d, omega) triple the set-up probe builds a model for."""
    rng = random.Random(f"{name}:{seed}")
    dims = SIZES[size][name]
    R = dims["window_radius"]
    if name == "lamination-1d":
        n = dims["n_samples"]
        spec = {"model": _model(2, 1), "omega": "golden", "eps": "eps1/2",
                "p": _masses(rng, 2), "window_radius": R, "n_samples": n}
        return {"command": "lamination", "spec": spec, "calls": n,
                "setup": (2, 1, [GOLDEN])}
    if name == "cantorus-1d":
        n = dims["n_samples"]
        spec = {"model": _model(1, 1), "omega": "golden", "eps": "eps1/2",
                "p": [1.0], "window_radius": R, "n_samples": n,
                "s0": round(rng.random(), 6)}
        return {"command": "cantorus", "spec": spec, "calls": n + 1,
                "setup": (1, 1, [GOLDEN])}
    if name == "sweep-2d":
        eps_values = [f"eps1/{j}" for j in range(1, dims["n_eps"] + 1)]
        spec = {"model": _model(2, 2), "omega": ["sqrt2-1", "sqrt3-1"],
                "eps_values": eps_values, "p": _masses(rng, 2),
                "window_radius": R}
        return {"command": "sweep", "spec": spec, "calls": len(eps_values),
                "setup": (2, 2, [SQRT2_1, SQRT3_1])}
    if name == "measure-injectivity":
        spacing = dims["spacing"]
        steps = int(round(1.0 / spacing))
        grid = (steps + 1) * (steps + 2) // 2
        spec = {"model": _model(3, 1), "omega": "golden", "eps": "eps1/2",
                "p": _masses(rng, 3), "window_radius": R, "n": R,
                "injectivity": {"spacing": spacing}}
        return {"command": "measure", "spec": spec, "calls": grid + 1,
                "grid": grid, "setup": (3, 1, [GOLDEN])}
    raise KeyError(name)


NAMES = tuple(SIZES["full"])
