"""The self-check suite: all green on sound models, loud on broken ones."""

import numpy as np
import pytest

from lamlab import InteractionStencil, Model, run_suite
from lamlab.verification import CHECKS

EXPECTED = [
    "constants-envelope",
    "stencil-sign-condition",
    "background-potential",
    "gradient-consistency",
    "min-max-inequality",
    "comparison-principle",
    "defect-subadditivity",
    "hull-axioms",
    "measure-round-trip",
]


def test_registry_names():
    assert [name for name, _ in CHECKS] == EXPECTED


def test_default_model_passes_everything():
    rows = run_suite()
    assert [r.name for r in rows] == EXPECTED
    for row in rows:
        assert row.passed, f"{row.name}: {row.detail}"
        assert row.detail


def test_explicit_model_and_determinism(model1):
    one = run_suite(model=model1, seed=7)
    two = run_suite(model=model1, seed=7)
    assert [(r.name, r.passed, r.detail) for r in one] == \
           [(r.name, r.passed, r.detail) for r in two]
    assert all(r.passed for r in one)


class UncheckedStencil(InteractionStencil):
    """A stencil built without its construction checks, so that the suite
    can be shown a broken one."""

    def _validate(self):
        pass


def test_flipped_stencil_fails_sign_checks(model1):
    s = model1.stencil
    flipped = UncheckedStencil(
        s.d, s.range,
        lambda w: -s.energy(w),
        lambda w: -s.gradient(w),
        lambda w: -s.hessian(w),
    )
    broken = Model(model1.potential, flipped, model1.constants)
    rows = {r.name: r for r in run_suite(model=broken)}
    assert not rows["stencil-sign-condition"].passed
    assert not rows["min-max-inequality"].passed
    # checks that ignore the stencil couplings stay green
    assert rows["background-potential"].passed
    assert rows["hull-axioms"].passed


def test_override_tampers_single_row(model1):
    rows = {r.name: r for r in run_suite(model=model1,
                                         overrides={"gradient-consistency": 1e-18})}
    assert not rows["gradient-consistency"].passed
    others = [r for name, r in rows.items() if name != "gradient-consistency"]
    assert all(r.passed for r in others)


def test_override_can_loosen(model1):
    rows = {r.name: r for r in run_suite(model=model1,
                                         overrides={"min-max-inequality": 10.0})}
    assert rows["min-max-inequality"].passed
